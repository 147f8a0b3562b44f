# docs/ARCHITECTURE.md commits the include graph as a fenced `dot`
# block; it must match a fresh `fpr-lint --graph dot` export of src/
# byte for byte, or the document has drifted from the code. Run by the
# fpr_lint_architecture_doc CTest:
#
#   cmake -DFPR_LINT=<fpr-lint> -DSRC_DIR=<repo>/src
#         -DDOC=<repo>/docs/ARCHITECTURE.md -P check_architecture_doc.cmake
execute_process(COMMAND "${FPR_LINT}" --graph dot "${SRC_DIR}"
  OUTPUT_VARIABLE fresh RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "fpr-lint --graph dot failed (exit ${rc})")
endif()

file(READ "${DOC}" doc)
set(open "```dot\n")
string(FIND "${doc}" "${open}" begin)
if(begin EQUAL -1)
  message(FATAL_ERROR "${DOC} has no fenced dot block")
endif()
string(LENGTH "${open}" open_len)
math(EXPR begin "${begin} + ${open_len}")
string(SUBSTRING "${doc}" ${begin} -1 rest)
string(FIND "${rest}" "\n```" end)
if(end EQUAL -1)
  message(FATAL_ERROR "${DOC}: the dot block is not closed")
endif()
math(EXPR end "${end} + 1")  # keep the block's last newline
string(SUBSTRING "${rest}" 0 ${end} committed)

if(NOT "${committed}" STREQUAL "${fresh}")
  message(FATAL_ERROR
    "docs/ARCHITECTURE.md is stale: regenerate with "
    "'fpr-lint --graph dot src/' and re-paste the dot block.\n"
    "--- committed\n${committed}--- fresh\n${fresh}")
endif()
