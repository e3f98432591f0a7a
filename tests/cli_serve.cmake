# CLI check of the stdin transport of `lrsizer serve`: one request file on
# stdin, answered on stdout by the same request reader TCP clients get.
#
#   * `hello` is the first line out;
#   * a blank line is ignored (it answers nothing);
#   * a line over the 8 MiB cap is answered `oversized` without being
#     parsed, whether it outgrows the read buffer (9 MiB) or arrives whole
#     (8 MiB + 100 bytes), and the request after it is still served;
#   * a size request sent just before EOF, unterminated, still gets its
#     result: EOF stops reading and drains, it does not cancel;
#   * the exit code is 0.
#
#   cmake -DLRSIZER=path/to/lrsizer -DWORK_DIR=dir -P cli_serve.cmake
set(input "${WORK_DIR}/cli_serve_stdin.jsonl")
string(REPEAT "x" 9437184 oversized)  # 9 MiB, no newline inside
string(REPEAT "y" 8388708 just_over)  # 8 MiB + 100 bytes
file(WRITE "${input}"
  "\n"
  "${oversized}\n"
  "${just_over}\n"
  "{\"type\":\"size\",\"id\":\"after\",\"input\":{\"profile\":\"c17\"},\"options\":{\"vectors\":8}}\n"
  "\n"
  "{\"type\":\"size\",\"id\":\"last\",\"input\":{\"profile\":\"c17\"},\"options\":{\"vectors\":8},\"seed\":9}")
set(oversized "")
set(just_over "")
execute_process(COMMAND "${LRSIZER}" serve --jobs 1
                INPUT_FILE "${input}" OUTPUT_VARIABLE out ERROR_VARIABLE err
                RESULT_VARIABLE rc TIMEOUT 120)
file(REMOVE "${input}")
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "lrsizer serve exited ${rc}: ${err}")
endif()

string(REGEX MATCHALL "[^\n]+" lines "${out}")
set(seen "")
foreach(line IN LISTS lines)
  string(JSON type GET "${line}" type)
  string(JSON id ERROR_VARIABLE no_id GET "${line}" id)
  if(no_id)
    set(id "-")
  endif()
  if(type STREQUAL "error")
    string(JSON code GET "${line}" code)
    string(APPEND type ":${code}")
  endif()
  list(APPEND seen "${type}/${id}")
endforeach()

# Responses of the two jobs may interleave with each other, not with the
# lines that come before them.
list(LENGTH seen count)
if(NOT count EQUAL 7)
  message(FATAL_ERROR "expected 7 response lines, got ${count}: ${seen}")
endif()
list(SUBLIST seen 0 3 head)
if(NOT head STREQUAL "hello/-;error:oversized/-;error:oversized/-")
  message(FATAL_ERROR "expected hello, then two oversized errors: ${seen}")
endif()
foreach(expected "accepted/after" "result/after" "accepted/last" "result/last")
  list(FIND seen "${expected}" at)
  if(at LESS 3)
    message(FATAL_ERROR "missing ${expected}: ${seen}")
  endif()
endforeach()
