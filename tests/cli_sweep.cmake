# CLI sweep-flag check: LRS has one sweep, so `--sweep` is gone, and a
# command line that still passes it (with either old value) is refused with
# a message naming the flag instead of running with it ignored.
#
#   cmake -DLRSIZER=path/to/lrsizer -P cli_sweep.cmake
foreach(mode worklist dense)
  execute_process(COMMAND "${LRSIZER}" run c17 --sweep ${mode} --quiet
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err
                  INPUT_FILE /dev/null TIMEOUT 60)
  if(rc EQUAL 0)
    message(FATAL_ERROR "lrsizer run c17 --sweep ${mode} exited 0")
  endif()
  if(NOT err MATCHES "unknown option '--sweep'")
    message(FATAL_ERROR "lrsizer run c17 --sweep ${mode}: message does not name --sweep: ${err}")
  endif()
endforeach()
