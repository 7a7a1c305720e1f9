# CTest smoke run of the photherm_cli scenario driver, invoked as
#   cmake -DPHOTHERM_CLI=... -DGOLDEN=... -DWORK_DIR=... -P scenario_smoke.cmake
# Flow: expand the builtin smoke suite to a scenario file, run that file
# twice (serial + cold vs threaded + cached), require the two CSVs to be
# bit-identical, then compare against the checked-in golden CSV within a
# numeric tolerance (absorbs cross-platform floating-point drift while
# still catching real regressions). A third run appends a scenario that
# differs from the first only in its WDM channel count: the cache must
# share its thermal report (thermal_solves below the scenario count) and
# leave every other row byte-identical.

foreach(var PHOTHERM_CLI GOLDEN WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "scenario_smoke.cmake needs -D${var}=...")
  endif()
endforeach()

file(MAKE_DIRECTORY ${WORK_DIR})

function(run_cli)
  execute_process(COMMAND ${PHOTHERM_CLI} ${ARGN} RESULT_VARIABLE rv)
  if(NOT rv EQUAL 0)
    message(FATAL_ERROR "photherm_cli ${ARGN} failed with exit code ${rv}")
  endif()
endfunction()

# Like run_cli, but also requires the stable key=value stats line on
# stderr — the machine-readable contract scripts grep for — and sets
# <prefix>_scenarios, <prefix>_cache_hits and <prefix>_thermal_solves in the
# caller's scope.
function(run_cli_stats prefix)
  execute_process(COMMAND ${PHOTHERM_CLI} ${ARGN} RESULT_VARIABLE rv ERROR_VARIABLE err)
  if(NOT rv EQUAL 0)
    message(FATAL_ERROR "photherm_cli ${ARGN} failed with exit code ${rv}")
  endif()
  set(regex "scenarios=([0-9]+) global_solves=[0-9]+ cache_hits=([0-9]+) thermal_solves=([0-9]+)")
  if(NOT err MATCHES "event=batch_run ${regex}")
    message(FATAL_ERROR "photherm_cli ${ARGN}: stderr does not match "
                        "`event=batch_run ${regex}`; got:\n${err}")
  endif()
  set(${prefix}_scenarios ${CMAKE_MATCH_1} PARENT_SCOPE)
  set(${prefix}_cache_hits ${CMAKE_MATCH_2} PARENT_SCOPE)
  set(${prefix}_thermal_solves ${CMAKE_MATCH_3} PARENT_SCOPE)
endfunction()

run_cli(expand builtin:smoke -o ${WORK_DIR}/suite.scn)
run_cli_stats(cold run ${WORK_DIR}/suite.scn --threads 1 --no-cache -o ${WORK_DIR}/serial.csv)
if(NOT cold_cache_hits EQUAL 0 OR NOT cold_thermal_solves EQUAL cold_scenarios)
  message(FATAL_ERROR "--no-cache must solve every scenario cold: cache_hits="
                      "${cold_cache_hits} thermal_solves=${cold_thermal_solves} "
                      "scenarios=${cold_scenarios}")
endif()
run_cli_stats(cached run ${WORK_DIR}/suite.scn --threads 4 -o ${WORK_DIR}/threaded.csv)

file(READ ${WORK_DIR}/serial.csv serial_csv)
file(READ ${WORK_DIR}/threaded.csv threaded_csv)
if(NOT serial_csv STREQUAL threaded_csv)
  message(FATAL_ERROR "batch output is not bit-identical between "
                      "{1 thread, cache off} and {4 threads, cache on}")
endif()

run_cli(diff ${GOLDEN} ${WORK_DIR}/serial.csv --tol 1e-4)

# Report sharing: a WDM variant of the first scenario is thermally identical
# to it, so the cached run solves one thermal problem fewer than it has
# scenarios, and the original rows keep their bytes.
file(READ ${WORK_DIR}/suite.scn suite_text)
string(REGEX MATCH "scenario traffic_uniform\n[^\n]+(\n[^\n]+)*" uniform "${suite_text}")
string(REPLACE "scenario traffic_uniform" "scenario traffic_uniform_wdm16" variant "${uniform}")
string(REPLACE "wdm_channels = 8" "wdm_channels = 16" variant "${variant}")
if(variant STREQUAL "" OR variant STREQUAL uniform)
  message(FATAL_ERROR "suite.scn: could not derive a WDM variant of traffic_uniform")
endif()
file(WRITE ${WORK_DIR}/shared.scn "${suite_text}\n${variant}\n")
run_cli_stats(shared run ${WORK_DIR}/shared.scn --threads 4 -o ${WORK_DIR}/shared.csv)
if(NOT shared_thermal_solves LESS shared_scenarios)
  message(FATAL_ERROR "the cache shared no thermal report: thermal_solves="
                      "${shared_thermal_solves} scenarios=${shared_scenarios}")
endif()
file(READ ${WORK_DIR}/shared.csv shared_csv)
string(FIND "${shared_csv}" "${serial_csv}" serial_at)
if(NOT serial_at EQUAL 0)
  message(FATAL_ERROR "adding a thermally shared scenario changed the other rows")
endif()
