# CLI flag checks, one group per CHECK:
#
#   cache_warm  `--cache-warm` seeds jobs from the serve loop's cache, so run,
#               batch and sweep reject it with a message naming serve.
#   integers    an integer flag refuses a value its field cannot hold, with
#               a message naming the flag, instead of narrowing it (by that
#               narrowing, --vectors 4294967297 ran as --vectors 1 and
#               --listen 4294975376 passed the port check as 8080).
#
#   cmake -DLRSIZER=path/to/lrsizer -DCHECK=cache_warm|integers -P cli_flags.cmake
if(CHECK STREQUAL "cache_warm")
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
elseif(CHECK STREQUAL "integers")
  # "<flag>|<command and value>" — each must exit nonzero naming <flag>.
  foreach(case
      "--vectors|run;c17;--vectors;4294967297"
      "--vectors|run;c17;--vectors;-4294967295"
      "--jobs|batch;--profiles;c17;--jobs;4294967297"
      "--shard|batch;--profiles;c17;--shard;4294967296/4294967297"
      "--listen|serve;--listen;4294975376"
      "--metrics-port|serve;--listen;0;--metrics-port;4294975376"
      "--max-pending|serve;--max-pending;4294967296"
      "--max-pending-per-client|serve;--max-pending-per-client;4294967296"
      "--seed|run;c17;--seed;-1")
    string(FIND "${case}" "|" bar)
    string(SUBSTRING "${case}" 0 ${bar} flag)
    math(EXPR rest "${bar} + 1")
    string(SUBSTRING "${case}" ${rest} -1 args)
    execute_process(COMMAND "${LRSIZER}" ${args} --quiet
                    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err
                    INPUT_FILE /dev/null TIMEOUT 60)
    if(rc EQUAL 0)
      message(FATAL_ERROR "lrsizer ${args} exited 0")
    endif()
    if(NOT err MATCHES "${flag}")
      message(FATAL_ERROR "lrsizer ${args}: message does not name ${flag}: ${err}")
    endif()
  endforeach()
  # The edges of a field's range still parse.
  execute_process(COMMAND "${LRSIZER}" run c17 --vectors 2 --seed 18446744073709551615
                          --quiet
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err TIMEOUT 60)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "lrsizer run c17 --vectors 2 --seed 2^64-1 failed: ${err}")
  endif()
else()
  message(FATAL_ERROR "cli_flags.cmake: unknown CHECK '${CHECK}'")
endif()
