# Runs one command and passes only if it exits with the expected code
# and its output matches. Usage:
#   cmake -DCODE=<exit code> [-DSTDERR_RE=<regex>] [-DSTDOUT_RE=<regex>]
#         [-DWORKDIR=<dir>] -P expect_exit.cmake -- <command> [args...]
# WORKDIR is emptied and recreated, and the command runs inside it.
set(cmd "")
set(after_dashes FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
    if(after_dashes)
        list(APPEND cmd "${CMAKE_ARGV${i}}")
    elseif(CMAKE_ARGV${i} STREQUAL "--")
        set(after_dashes TRUE)
    endif()
endforeach()
if(NOT cmd)
    message(FATAL_ERROR "expect_exit.cmake: no command after --")
endif()

set(workdir_args "")
if(WORKDIR)
    file(REMOVE_RECURSE "${WORKDIR}")
    file(MAKE_DIRECTORY "${WORKDIR}")
    set(workdir_args WORKING_DIRECTORY "${WORKDIR}")
endif()

execute_process(COMMAND ${cmd} ${workdir_args}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
set(why "")
if(NOT rc STREQUAL "${CODE}")
    set(why "exit '${rc}', expected ${CODE}")
elseif(DEFINED STDERR_RE AND NOT err MATCHES "${STDERR_RE}")
    set(why "stderr does not match '${STDERR_RE}'")
elseif(DEFINED STDOUT_RE AND NOT out MATCHES "${STDOUT_RE}")
    set(why "stdout does not match '${STDOUT_RE}'")
endif()
if(why)
    message(FATAL_ERROR "${cmd}: ${why}:\n${out}${err}")
endif()
