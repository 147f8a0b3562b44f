# docs/ARCHITECTURE.md commits the include graph as a fenced `dot`
# block; it must match a fresh `fpr-lint --graph dot` export of src/
# byte for byte, or the document has drifted from the code. Run by the
# fpr_lint_architecture_doc CTest:
#
#   cmake -DFPR_LINT=<fpr-lint> -DSRC_DIR=<repo>/src
#         -DDOC=<repo>/docs/ARCHITECTURE.md -P check_architecture_doc.cmake
include(${CMAKE_CURRENT_LIST_DIR}/../doc_block.cmake)

execute_process(COMMAND "${FPR_LINT}" --graph dot "${SRC_DIR}"
  OUTPUT_VARIABLE fresh RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "fpr-lint --graph dot failed (exit ${rc})")
endif()

read_fenced_block("${DOC}" dot committed)
if(NOT "${committed}" STREQUAL "${fresh}")
  message(FATAL_ERROR
    "docs/ARCHITECTURE.md is stale: regenerate with "
    "'fpr-lint --graph dot src/' and re-paste the dot block.\n"
    "--- committed\n${committed}--- fresh\n${fresh}")
endif()
