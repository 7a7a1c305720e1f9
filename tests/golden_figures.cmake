# CTest comparison of one golden_figures run against its references,
# invoked as
#   cmake -DWRITER=... -DPHOTHERM_CLI=... -DFIGURE=heater|snr
#         -DGOLDEN_DIR=... -DWORK_DIR=... -P golden_figures.cmake
# Flow: the writer emits the figure's exact-mode CSVs into an emptied
# WORK_DIR, and each must match GOLDEN_DIR/<same name> within `photherm_cli
# diff --tol 1e-4` (a cell passes only if equal, or both finite and within
# 1e-4 * max(1, |a|, |b|)).

foreach(var WRITER PHOTHERM_CLI FIGURE GOLDEN_DIR WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "golden_figures.cmake needs -D${var}=...")
  endif()
endforeach()

file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})
execute_process(COMMAND ${WRITER} ${FIGURE} ${WORK_DIR} RESULT_VARIABLE rv)
if(NOT rv EQUAL 0)
  message(FATAL_ERROR "golden_figures ${FIGURE} failed with exit code ${rv}")
endif()

file(GLOB written RELATIVE ${WORK_DIR} ${WORK_DIR}/*.csv)
if(NOT written)
  message(FATAL_ERROR "golden_figures ${FIGURE} wrote no CSV")
endif()
foreach(name ${written})
  execute_process(COMMAND ${PHOTHERM_CLI} diff ${GOLDEN_DIR}/${name} ${WORK_DIR}/${name}
                          --tol 1e-4
                  RESULT_VARIABLE rv)
  if(NOT rv EQUAL 0)
    message(FATAL_ERROR "${name} differs from golden/${name} beyond --tol 1e-4")
  endif()
endforeach()
