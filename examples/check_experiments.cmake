# Holds EXPERIMENTS.md to `failmine_cli experiments`.
#
#   cmake -DCLI=<failmine_cli> -DDOC=<EXPERIMENTS.md> -DSCALE=<S>
#         [-DWRITE=ON] [-DTRACE=<trace.json>] -P check_experiments.cmake
#
# Runs `CLI experiments --scale S` and cuts its output and the doc into
# their marked blocks (a BEGIN <id> comment line, the block, an END <id>
# comment). Both must hold the same ids in the same order with the same
# bytes; each differing id is named with its first differing line.
# -DWRITE=ON first replaces the doc's blocks with one run's output (the
# way to regenerate the doc), then checks it against a second run, so two
# runs must print the same bytes. -DTRACE=PATH has each run write a
# chrome-trace export there, which must hold one experiments.<id> span
# per table. Block bodies contain ';', which CMake lists take as a
# separator, so the text is cut with string(FIND) and string(SUBSTRING).

cmake_minimum_required(VERSION 3.16)

foreach(input CLI DOC SCALE)
  if(NOT DEFINED ${input})
    message(FATAL_ERROR "check_experiments.cmake needs -D${input}=...")
  endif()
endforeach()

# Sets cmd_ids / cmd_<id> from one run and doc_ids / doc_<id> from DOC.
function(read_blocks)
  set(trace_args)
  if(TRACE)
    set(trace_args --trace-out ${TRACE})
  endif()
  execute_process(COMMAND ${CLI} experiments --scale ${SCALE} ${trace_args}
                  OUTPUT_VARIABLE cmd ERROR_VARIABLE err RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "failmine_cli experiments exited ${rc}:\n${err}")
  endif()
  file(READ "${DOC}" doc)
  foreach(side cmd doc)
    set(rest "${${side}}")
    set(ids)
    while(TRUE)
      string(FIND "${rest}" "<!-- BEGIN " begin)
      if(begin EQUAL -1)
        break()
      endif()
      math(EXPR begin "${begin} + 11")
      string(SUBSTRING "${rest}" ${begin} -1 rest)
      string(FIND "${rest}" " -->\n" id_len)
      if(id_len EQUAL -1)
        message(FATAL_ERROR "${side}: unterminated BEGIN marker")
      endif()
      string(SUBSTRING "${rest}" 0 ${id_len} id)
      math(EXPR id_len "${id_len} + 5")
      string(SUBSTRING "${rest}" ${id_len} -1 rest)
      string(FIND "${rest}" "<!-- END ${id} -->" body_len)
      if(body_len EQUAL -1 OR id IN_LIST ids)
        message(FATAL_ERROR "${side}: block ${id} is unterminated or repeated")
      endif()
      string(SUBSTRING "${rest}" 0 ${body_len} body)
      string(SUBSTRING "${rest}" ${body_len} -1 rest)
      list(APPEND ids ${id})
      set(${side}_${id} "${body}" PARENT_SCOPE)
    endwhile()
    set(${side}_ids "${ids}" PARENT_SCOPE)
  endforeach()
  set(doc "${doc}" PARENT_SCOPE)
  if(NOT "${cmd_ids}" STREQUAL "${doc_ids}")
    string(REPLACE ";" " " cmd_ids "${cmd_ids}")
    string(REPLACE ";" " " doc_ids "${doc_ids}")
    message(FATAL_ERROR "${DOC} holds blocks [${doc_ids}], but "
                        "`failmine_cli experiments` prints [${cmd_ids}]")
  endif()
endfunction()

# Prints <id> with the first line at which <cmd> and <doc> differ.
function(report_difference id cmd doc)
  set(line 1)
  while(TRUE)
    string(FIND "${cmd}" "\n" cmd_end)
    string(FIND "${doc}" "\n" doc_end)
    string(SUBSTRING "${cmd}" 0 ${cmd_end} cmd_line)
    string(SUBSTRING "${doc}" 0 ${doc_end} doc_line)
    string(COMPARE NOTEQUAL "${cmd_line}" "${doc_line}" differs)
    if(differs OR cmd_end EQUAL -1 OR doc_end EQUAL -1)
      break()
    endif()
    math(EXPR cmd_end "${cmd_end} + 1")
    math(EXPR doc_end "${doc_end} + 1")
    string(SUBSTRING "${cmd}" ${cmd_end} -1 cmd)
    string(SUBSTRING "${doc}" ${doc_end} -1 doc)
    math(EXPR line "${line} + 1")
  endwhile()
  message("${id} differs at line ${line} of its block:\n"
          "  command: ${cmd_line}\n  doc:     ${doc_line}")
endfunction()

if(WRITE)
  read_blocks()
  foreach(id IN LISTS doc_ids)
    string(REPLACE "<!-- BEGIN ${id} -->\n${doc_${id}}<!-- END ${id} -->"
                   "<!-- BEGIN ${id} -->\n${cmd_${id}}<!-- END ${id} -->"
                   doc "${doc}")
  endforeach()
  file(WRITE "${DOC}" "${doc}")
  message(STATUS "rewrote the blocks of ${DOC} at scale ${SCALE}")
endif()

read_blocks()
set(differing)
foreach(id IN LISTS cmd_ids)
  string(COMPARE EQUAL "${cmd_${id}}" "${doc_${id}}" same)
  if(NOT same)
    report_difference(${id} "${cmd_${id}}" "${doc_${id}}")
    string(APPEND differing " ${id}")
  endif()
endforeach()
if(differing)
  message(FATAL_ERROR "${DOC} differs from `failmine_cli experiments "
    "--scale ${SCALE}` in:${differing}. Regenerate with -DWRITE=ON.")
endif()

if(TRACE)
  file(READ "${TRACE}" trace_json)
  list(REMOVE_ITEM cmd_ids trace)
  foreach(id IN LISTS cmd_ids)
    string(FIND "${trace_json}" "\"name\":\"experiments.${id}\"" at)
    if(at EQUAL -1)
      message(FATAL_ERROR "${TRACE} has no experiments.${id} span")
    endif()
  endforeach()
  string(REGEX MATCHALL "\"name\":\"experiments\\.[^\"]*\"" spans
         "${trace_json}")
  list(LENGTH spans span_count)
  list(LENGTH cmd_ids table_count)
  if(NOT span_count EQUAL table_count)
    message(FATAL_ERROR "${TRACE} holds ${span_count} experiments.* spans "
                        "for ${table_count} tables")
  endif()
endif()

message(STATUS "${DOC} matches `failmine_cli experiments --scale ${SCALE}`")
