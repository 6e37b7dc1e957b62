# Runs sf-serve and checks its stdout byte for byte.
#
#   cmake -DSF_SERVE=path/to/sf-serve -DARGS="--benchmark db ..."
#         [-DFIXTURE=expected.txt | -DEXPECT_FAIL=ON] -P compare.cmake
#
# With FIXTURE, sf-serve must exit 0 and print exactly the fixture's
# bytes.  With EXPECT_FAIL, it must exit non-zero and print nothing on
# stdout (misuse fails before any work).  The fixtures were generated
# before the single-app and multi-app serve loops were merged; regenerate
# one only for a deliberate output change, with the same ARGS.

separate_arguments(ArgList UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${SF_SERVE}" ${ArgList}
                OUTPUT_VARIABLE Out
                ERROR_VARIABLE Err
                RESULT_VARIABLE Rc)

if(EXPECT_FAIL)
  if(Rc EQUAL 0)
    message(FATAL_ERROR "sf-serve ${ARGS} exited 0; expected a failure")
  endif()
  if(NOT Out STREQUAL "")
    message(FATAL_ERROR "sf-serve ${ARGS} printed to stdout:\n${Out}")
  endif()
  return()
endif()

if(NOT Rc EQUAL 0)
  message(FATAL_ERROR "sf-serve ${ARGS} exited ${Rc}:\n${Err}")
endif()
file(READ "${FIXTURE}" Expected)
if(NOT Out STREQUAL Expected)
  message(FATAL_ERROR "sf-serve ${ARGS}: stdout differs from ${FIXTURE}\n"
                      "--- got ---\n${Out}")
endif()
