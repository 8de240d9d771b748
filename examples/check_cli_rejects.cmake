# Runs one failmine_cli invocation that must be refused before it runs.
#
#   cmake -DCLI=<failmine_cli> "-DARGS=<space-separated arguments>"
#         -DEXPECT=<regex> [-DABSENT=<path>] -P check_cli_rejects.cmake
#
# Passes if the run exits 2, its stderr matches EXPECT and, when ABSENT is
# given, that path does not exist afterwards (the command wrote nothing).

cmake_minimum_required(VERSION 3.16)

foreach(input CLI ARGS EXPECT)
  if(NOT DEFINED ${input})
    message(FATAL_ERROR "check_cli_rejects.cmake needs -D${input}=...")
  endif()
endforeach()

if(ABSENT)
  file(REMOVE_RECURSE "${ABSENT}")
endif()
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${CLI} ${args}
                OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "failmine_cli ${ARGS} exited ${rc}, expected 2:\n"
                      "${out}${err}")
endif()
if(NOT err MATCHES "${EXPECT}")
  message(FATAL_ERROR "stderr of failmine_cli ${ARGS} does not match "
                      "'${EXPECT}':\n${err}")
endif()
if(ABSENT AND EXISTS "${ABSENT}")
  message(FATAL_ERROR "failmine_cli ${ARGS} was refused but wrote ${ABSENT}")
endif()
