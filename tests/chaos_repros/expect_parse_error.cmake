# Replays a malformed chaos repro and passes only if pimdsm-chaos
# rejects it as a parse error: exit code 2 and "repro parse error" on
# stderr. Usage:
#   cmake -DCHAOS=<pimdsm-chaos> -DREPRO=<file> -P expect_parse_error.cmake
execute_process(COMMAND ${CHAOS} replay ${REPRO}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc STREQUAL "2" OR NOT err MATCHES "repro parse error")
    message(FATAL_ERROR
            "expected a repro parse error (exit 2), got '${rc}':\n"
            "${out}${err}")
endif()
