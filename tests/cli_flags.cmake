# CLI flag scope check: `--cache-warm` seeds jobs from the serve loop's
# cache, so run, batch and sweep reject it with a message naming serve.
#
#   cmake -DLRSIZER=path/to/lrsizer -P cli_flags.cmake
foreach(args "run;c17" "batch;--profiles;c17" "sweep;--noise;0.1:0.1:0.1")
  execute_process(COMMAND "${LRSIZER}" ${args} --cache-warm
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(rc EQUAL 0)
    message(FATAL_ERROR "lrsizer ${args} --cache-warm exited 0")
  endif()
  if(NOT err MATCHES "--cache-warm only applies to serve")
    message(FATAL_ERROR "lrsizer ${args} --cache-warm: unexpected message: ${err}")
  endif()
endforeach()
