/**
 * @file
 * The one JSON path of the benches and tools: a streaming writer, a
 * flat reader, and whole-file read/write.
 *
 * The writer lays each object or array out either as a *block* (one
 * member per line, two spaces of indent per level; an empty block
 * prints `[]` or `{}`) or *inline* (`{"k": v, "k": v}` on one line).
 * Numbers print exactly as `std::ostream <<` prints them, so a double
 * keeps the stream's default six significant digits.
 *
 * The reader flattens a document into a path → scalar map: object
 * members join by '.', array elements by their index, so a speccheck
 * baseline reads as `archs.agg.states` and `archs.coma.truncated`,
 * and a fault-campaign row as `0.scenario`. It takes what the writer
 * writes: objects, arrays, strings with the writer's escapes, numbers
 * and bools (not null). Anything else is reported as an error string;
 * it never throws.
 */

#ifndef PIMDSM_REPORT_JSON_HH
#define PIMDSM_REPORT_JSON_HH

#include <charconv>
#include <cstdint>
#include <map>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <vector>

namespace pimdsm
{

enum class JsonLayout : std::uint8_t
{
    Block,
    Inline,
};

class JsonWriter
{
  public:
    /** Writes to @p os; the root value ends with a newline. */
    explicit JsonWriter(std::ostream &os) : os_(os) {}

    JsonWriter &beginObject(JsonLayout layout = JsonLayout::Block)
    {
        return begin(layout, '{', '}');
    }
    JsonWriter &beginArray(JsonLayout layout = JsonLayout::Block)
    {
        return begin(layout, '[', ']');
    }
    /** Close the innermost open object or array. */
    JsonWriter &end();

    /** Name the next value (inside an object). */
    JsonWriter &key(std::string_view name);

    JsonWriter &value(std::string_view s);
    JsonWriter &value(const char *s) { return value(std::string_view(s)); }
    JsonWriter &value(bool b);
    template <typename T>
        requires(std::is_arithmetic_v<T> && !std::is_same_v<T, bool>)
    JsonWriter &value(T v)
    {
        open();
        os_ << v;
        return *this;
    }

    template <typename T>
    JsonWriter &field(std::string_view name, const T &v)
    {
        return key(name).value(v);
    }

    /** @p s with `"`, `\`, newline, tab and every other control
     *  character escaped, ready to sit between quotes. */
    static std::string escape(std::string_view s);

  private:
    struct Level
    {
        JsonLayout layout;
        char close;
        bool empty = true;
    };

    /** Separate and indent the next member of the open container. */
    void open();
    JsonWriter &begin(JsonLayout layout, char open, char close);
    void newline();

    std::ostream &os_;
    std::vector<Level> stack_;
    /** A key was just written: the next value follows it directly. */
    bool keyed_ = false;
};

/** One scalar leaf: a string (unescaped), a number (as written) or a
 *  bool ("true" / "false"). */
struct JsonScalar
{
    enum class Kind : std::uint8_t
    {
        String,
        Number,
        Bool,
    };
    Kind kind = Kind::String;
    std::string text;
};

/** True when @p s is exactly one JSON number token; when @p integral,
 *  one without fraction or exponent. */
bool isJsonNumber(std::string_view s, bool integral);

/**
 * @p s as a T when the whole of it is one JSON number that fits T (an
 * integer for integral T), else nothing. The reader and every numeric
 * command-line flag of the tools parse numbers through this.
 */
template <typename T>
std::optional<T>
parseNumber(std::string_view s)
{
    if (!isJsonNumber(s, std::is_integral_v<T>))
        return std::nullopt;
    T v{};
    const char *end = s.data() + s.size();
    const auto [ptr, ec] = std::from_chars(s.data(), end, v);
    if (ec != std::errc{} || ptr != end)
        return std::nullopt;
    return v;
}

/** A parsed, flattened document. */
struct JsonDoc
{
    /** Why the parse failed; empty on success. */
    std::string error;
    std::map<std::string, JsonScalar> values;

    bool ok() const { return error.empty(); }

    std::optional<std::string> string(const std::string &path) const;
    std::optional<bool> boolean(const std::string &path) const;
    template <typename T>
    std::optional<T> number(const std::string &path) const
    {
        const JsonScalar *s = find(path, JsonScalar::Kind::Number);
        return s ? parseNumber<T>(s->text) : std::nullopt;
    }

  private:
    const JsonScalar *find(const std::string &path,
                           JsonScalar::Kind kind) const;
};

JsonDoc parseJson(std::string_view text);

/** The whole of @p path, or nothing when it cannot be read. */
std::optional<std::string> readFile(const std::string &path);

/** Replace @p path with @p content; false when it cannot be written. */
bool writeFile(const std::string &path, std::string_view content);

} // namespace pimdsm

#endif // PIMDSM_REPORT_JSON_HH
