# CLI sweep-mode check: an unflagged `lrsizer run` uses the worklist sweep
# (byte-identical to `--sweep worklist`), and `--sweep dense` reaches the
# other, exact Figure-8 sweep.
#
#   cmake -DLRSIZER=path/to/lrsizer -DOUT=scratch/dir -P cli_sweep.cmake
file(MAKE_DIRECTORY "${OUT}")
foreach(mode default worklist dense)
  set(args run c432 --out "${OUT}/${mode}.bench")
  if(NOT mode STREQUAL "default")
    list(APPEND args --sweep ${mode})
  endif()
  execute_process(COMMAND "${LRSIZER}" ${args} RESULT_VARIABLE rc OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "lrsizer ${args} exited ${rc}")
  endif()
  file(READ "${OUT}/${mode}.bench" ${mode}_bench)
endforeach()
if(NOT default_bench STREQUAL worklist_bench)
  message(FATAL_ERROR "an unflagged run differs from --sweep worklist")
endif()
if(default_bench STREQUAL dense_bench)
  message(FATAL_ERROR "--sweep dense produced the worklist output")
endif()
