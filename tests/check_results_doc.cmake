# docs/RESULTS.md commits the reproduction's numbers as a fenced `text`
# block: `fpr report` over a fresh `fpr study --threads 1` (one worker
# per kernel run keeps the op counts host-independent). The block must
# match a fresh run byte for byte, or the document has drifted from the
# code. Run by the fpr_results_doc CTest:
#
#   cmake -DFPR=<fpr> -DJSON=<scratch results file>
#         -DDOC=<repo>/docs/RESULTS.md -P check_results_doc.cmake
include(${CMAKE_CURRENT_LIST_DIR}/doc_block.cmake)

execute_process(COMMAND "${FPR}" study --threads 1 --out "${JSON}"
  OUTPUT_QUIET ERROR_VARIABLE log RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "fpr study failed (exit ${rc}):\n${log}")
endif()
execute_process(COMMAND "${FPR}" report "${JSON}"
  OUTPUT_VARIABLE fresh ERROR_VARIABLE log RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "fpr report failed (exit ${rc}):\n${log}")
endif()

read_fenced_block("${DOC}" text committed)
if(NOT "${committed}" STREQUAL "${fresh}")
  message(FATAL_ERROR
    "docs/RESULTS.md is stale: regenerate with 'fpr study --threads 1 "
    "--out r.json && fpr report r.json' and re-paste the text block.\n"
    "--- committed\n${committed}--- fresh\n${fresh}")
endif()
