#include "report/json.hh"

#include <cstdio>
#include <fstream>
#include <iterator>

namespace pimdsm
{

// -------------------------------------------------------------- writer

JsonWriter &
JsonWriter::begin(JsonLayout layout, char open_char, char close_char)
{
    open();
    os_ << open_char;
    stack_.push_back(Level{layout, close_char});
    return *this;
}

JsonWriter &
JsonWriter::end()
{
    const Level l = stack_.back();
    stack_.pop_back();
    if (l.layout == JsonLayout::Block && !l.empty)
        newline();
    os_ << l.close;
    if (stack_.empty())
        os_ << '\n';
    return *this;
}

JsonWriter &
JsonWriter::key(std::string_view name)
{
    open();
    os_ << '"' << escape(name) << "\": ";
    keyed_ = true;
    return *this;
}

JsonWriter &
JsonWriter::value(std::string_view s)
{
    open();
    os_ << '"' << escape(s) << '"';
    return *this;
}

JsonWriter &
JsonWriter::value(bool b)
{
    open();
    os_ << (b ? "true" : "false");
    return *this;
}

void
JsonWriter::open()
{
    if (keyed_) {
        keyed_ = false;
        return;
    }
    if (stack_.empty())
        return;
    Level &l = stack_.back();
    const bool block = l.layout == JsonLayout::Block;
    if (!l.empty)
        os_ << (block ? "," : ", ");
    l.empty = false;
    if (block)
        newline();
}

void
JsonWriter::newline()
{
    os_ << '\n' << std::string(2 * stack_.size(), ' ');
}

std::string
JsonWriter::escape(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

// -------------------------------------------------------------- reader

bool
isJsonNumber(std::string_view s, bool integral)
{
    std::size_t i = 0;
    auto digits = [&] {
        const std::size_t from = i;
        while (i < s.size() && s[i] >= '0' && s[i] <= '9')
            ++i;
        return i > from;
    };
    if (i < s.size() && s[i] == '-')
        ++i;
    if (i < s.size() && s[i] == '0')
        ++i;
    else if (!digits())
        return false;
    if (integral)
        return i == s.size();
    if (i < s.size() && s[i] == '.') {
        ++i;
        if (!digits())
            return false;
    }
    if (i < s.size() && (s[i] == 'e' || s[i] == 'E')) {
        ++i;
        if (i < s.size() && (s[i] == '+' || s[i] == '-'))
            ++i;
        if (!digits())
            return false;
    }
    return i == s.size();
}

namespace
{

/** Deeper documents are rejected, so hostile input cannot exhaust
 *  the stack. */
constexpr int kMaxDepth = 64;

class Parser
{
  public:
    Parser(std::string_view text, JsonDoc &doc) : s_(text), doc_(doc) {}

    void run()
    {
        if (!value("", 0))
            return;
        skipSpace();
        if (pos_ != s_.size())
            fail("trailing characters");
    }

  private:
    bool fail(const std::string &why)
    {
        if (doc_.error.empty())
            doc_.error = why + (pos_ < s_.size()
                                    ? " at offset " + std::to_string(pos_)
                                    : std::string(" at end of input"));
        return false;
    }

    void skipSpace()
    {
        while (pos_ < s_.size() &&
               (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\t' ||
                s_[pos_] == '\r'))
            ++pos_;
    }

    bool eat(char c)
    {
        skipSpace();
        if (pos_ < s_.size() && s_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    bool leaf(const std::string &path, JsonScalar::Kind kind,
              std::string text)
    {
        if (!doc_.values.emplace(path, JsonScalar{kind, std::move(text)})
                 .second)
            return fail("duplicate key '" + path + "'");
        return true;
    }

    static std::string join(const std::string &path, std::string_view k)
    {
        return path.empty() ? std::string(k) : path + "." + std::string(k);
    }

    bool value(const std::string &path, int depth)
    {
        if (depth > kMaxDepth)
            return fail("nesting too deep");
        skipSpace();
        if (pos_ == s_.size())
            return fail("expected a value");
        const char c = s_[pos_];
        if (c == '{')
            return container(path, depth, '}');
        if (c == '[')
            return container(path, depth, ']');
        if (c == '"') {
            std::string str;
            return string(str) && leaf(path, JsonScalar::Kind::String, str);
        }
        for (std::string_view word : {"true", "false"}) {
            if (s_.substr(pos_, word.size()) == word) {
                pos_ += word.size();
                return leaf(path, JsonScalar::Kind::Bool, std::string(word));
            }
        }
        const std::size_t from = pos_;
        while (pos_ < s_.size() &&
               std::string_view("+-.0123456789eE").find(s_[pos_]) !=
                   std::string_view::npos)
            ++pos_;
        const std::string_view num = s_.substr(from, pos_ - from);
        if (num.empty())
            return fail("unexpected character");
        if (!parseNumber<double>(num)) {
            pos_ = from;
            return fail("bad number '" + std::string(num) + "'");
        }
        return leaf(path, JsonScalar::Kind::Number, std::string(num));
    }

    /** An object (@p close '}') or array (']') at pos_: members
     *  join @p path by key, elements by index. */
    bool container(const std::string &path, int depth, char close)
    {
        ++pos_; // '{' or '['
        if (eat(close))
            return true;
        std::size_t index = 0;
        do {
            std::string k;
            if (close == ']') {
                k = std::to_string(index++);
            } else {
                skipSpace();
                if (pos_ == s_.size() || s_[pos_] != '"')
                    return fail("expected a key");
                if (!string(k))
                    return false;
                if (!eat(':'))
                    return fail("expected ':'");
            }
            if (!value(join(path, k), depth + 1))
                return false;
        } while (eat(','));
        return eat(close) ||
               fail(std::string("expected ',' or '") + close + "'");
    }

    /** A string token at pos_ (its opening quote), unescaped. */
    bool string(std::string &out)
    {
        ++pos_; // '"'
        while (pos_ < s_.size()) {
            const char c = s_[pos_];
            if (static_cast<unsigned char>(c) < 0x20)
                return fail("control character in string");
            ++pos_;
            if (c == '"')
                return true;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ == s_.size())
                break;
            // The escapes JsonWriter::escape writes, and no others.
            const char e = s_[pos_++];
            switch (e) {
            case '"': out += '"'; break;
            case '\\': out += '\\'; break;
            case 'n': out += '\n'; break;
            case 't': out += '\t'; break;
            case 'u': {
                unsigned cp = 0;
                const std::string_view hex = s_.substr(pos_, 4);
                const char *end = hex.data() + hex.size();
                const auto [ptr, ec] =
                    std::from_chars(hex.data(), end, cp, 16);
                if (hex.size() != 4 || ec != std::errc{} || ptr != end ||
                    cp >= 0x80)
                    return fail("unsupported \\u escape");
                pos_ += 4;
                out += static_cast<char>(cp);
                break;
            }
            default:
                return fail("unsupported escape");
            }
        }
        return fail("unterminated string");
    }

    std::string_view s_;
    std::size_t pos_ = 0;
    JsonDoc &doc_;
};

} // namespace

JsonDoc
parseJson(std::string_view text)
{
    JsonDoc doc;
    Parser(text, doc).run();
    if (!doc.ok())
        doc.values.clear();
    return doc;
}

const JsonScalar *
JsonDoc::find(const std::string &path, JsonScalar::Kind kind) const
{
    const auto it = values.find(path);
    return it != values.end() && it->second.kind == kind ? &it->second
                                                         : nullptr;
}

std::optional<std::string>
JsonDoc::string(const std::string &path) const
{
    const JsonScalar *s = find(path, JsonScalar::Kind::String);
    return s ? std::optional<std::string>(s->text) : std::nullopt;
}

std::optional<bool>
JsonDoc::boolean(const std::string &path) const
{
    const JsonScalar *s = find(path, JsonScalar::Kind::Bool);
    return s ? std::optional<bool>(s->text == "true") : std::nullopt;
}

// --------------------------------------------------------------- files

std::optional<std::string>
readFile(const std::string &path)
{
    std::ifstream f(path, std::ios::binary);
    if (!f)
        return std::nullopt;
    std::string s{std::istreambuf_iterator<char>(f),
                  std::istreambuf_iterator<char>()};
    if (f.bad())
        return std::nullopt;
    return s;
}

bool
writeFile(const std::string &path, std::string_view content)
{
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f << content;
    return f.good();
}

} // namespace pimdsm
