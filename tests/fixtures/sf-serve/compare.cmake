# Runs an sf-* tool or bench driver and checks its stdout byte for byte.
#
#   cmake -DTOOL=path/to/sf-serve -DARGS="--benchmark db ..."
#         [-DFIXTURE=expected.txt | -DEXPECT_FAIL=ON] -P compare.cmake
#
# With FIXTURE, the tool must exit 0 and print exactly the fixture's
# bytes.  With EXPECT_FAIL, it must exit non-zero, print nothing on
# stdout, and open stderr with its "error: " diagnostic (misuse fails
# before any work, so no progress line comes first).  The fixtures were
# generated before the single-app and multi-app serve loops were merged;
# regenerate one only for a deliberate output change, with the same ARGS.

separate_arguments(ArgList UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${TOOL}" ${ArgList}
                OUTPUT_VARIABLE Out
                ERROR_VARIABLE Err
                RESULT_VARIABLE Rc)

if(EXPECT_FAIL)
  if(Rc EQUAL 0)
    message(FATAL_ERROR "${TOOL} ${ARGS} exited 0; expected a failure")
  endif()
  if(NOT Out STREQUAL "")
    message(FATAL_ERROR "${TOOL} ${ARGS} printed to stdout:\n${Out}")
  endif()
  string(FIND "${Err}" "error: " At)
  if(NOT At EQUAL 0)
    message(FATAL_ERROR "${TOOL} ${ARGS}: stderr does not open with the "
                        "diagnostic:\n${Err}")
  endif()
  return()
endif()

if(NOT Rc EQUAL 0)
  message(FATAL_ERROR "${TOOL} ${ARGS} exited ${Rc}:\n${Err}")
endif()
file(READ "${FIXTURE}" Expected)
if(NOT Out STREQUAL Expected)
  message(FATAL_ERROR "${TOOL} ${ARGS}: stdout differs from ${FIXTURE}\n"
                      "--- got ---\n${Out}")
endif()
