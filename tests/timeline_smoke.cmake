# CTest smoke run of the photherm_cli timeline playback, invoked as
#   cmake -DPHOTHERM_CLI=... -DGOLDEN=... -DWORK_DIR=... -P timeline_smoke.cmake
# Flow: play the builtin transient suite over a fixed horizon twice (serial
# vs threaded — the time-series CSVs must be bit-identical, the
# TimelineRunner determinism guarantee), then compare against the checked-in
# golden CSV within a numeric tolerance (absorbs cross-platform
# floating-point drift while still catching real regressions). The
# Chebyshev-preconditioned playback must match the same golden, and the
# removed preconditioners and flags must fail with their messages.

foreach(var PHOTHERM_CLI GOLDEN WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "timeline_smoke.cmake needs -D${var}=...")
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
# stderr — the machine-readable contract scripts grep for.
function(run_cli_expect_stderr regex)
  execute_process(COMMAND ${PHOTHERM_CLI} ${ARGN} RESULT_VARIABLE rv ERROR_VARIABLE err)
  if(NOT rv EQUAL 0)
    message(FATAL_ERROR "photherm_cli ${ARGN} failed with exit code ${rv}")
  endif()
  if(NOT err MATCHES "${regex}")
    message(FATAL_ERROR "photherm_cli ${ARGN}: stderr does not match "
                        "`${regex}`; got:\n${err}")
  endif()
endfunction()

# The command must fail (non-zero exit) with stderr matching `regex`.
function(run_cli_expect_failure regex)
  execute_process(COMMAND ${PHOTHERM_CLI} ${ARGN} RESULT_VARIABLE rv ERROR_VARIABLE err)
  if(rv EQUAL 0)
    message(FATAL_ERROR "photherm_cli ${ARGN} succeeded; expected a failure")
  endif()
  if(NOT err MATCHES "${regex}")
    message(FATAL_ERROR "photherm_cli ${ARGN}: stderr does not match "
                        "`${regex}`; got:\n${err}")
  endif()
endfunction()

set(play_stats_regex
    "event=timeline_play scenarios=[0-9]+ steps=[0-9]+ cg_iterations=[0-9]+ settled=[0-9]+ periodic=[0-9]+ paused=[0-9]+")
set(play_args play builtin:transient --dt 0.2 --periods 5)
run_cli_expect_stderr("${play_stats_regex}"
                      ${play_args} --threads 1 -o ${WORK_DIR}/serial.csv)
run_cli_expect_stderr("${play_stats_regex}"
                      ${play_args} --threads 4 -o ${WORK_DIR}/threaded.csv)

file(READ ${WORK_DIR}/serial.csv serial_csv)
file(READ ${WORK_DIR}/threaded.csv threaded_csv)
if(NOT serial_csv STREQUAL threaded_csv)
  message(FATAL_ERROR "timeline playback is not bit-identical between "
                      "1 and 4 threads")
endif()

# Progress heartbeat: --progress N emits the stable key=value line on
# stderr every N steps and must not perturb the physics output.
set(progress_regex
    "event=playback_progress scenario=[^ ]+ step=[0-9]+ time=[0-9.eE+-]+ dt=[0-9.eE+-]+ max_delta=[0-9.eE+-]+")
run_cli_expect_stderr("${progress_regex}"
                      ${play_args} --threads 1 --progress 3
                      -o ${WORK_DIR}/progress.csv)
file(READ ${WORK_DIR}/progress.csv progress_csv)
if(NOT serial_csv STREQUAL progress_csv)
  message(FATAL_ERROR "--progress changed the playback output")
endif()

run_cli(diff ${GOLDEN} ${WORK_DIR}/serial.csv --tol 1e-4)

# Every preconditioner the CLI accepts must reproduce the golden trace.
run_cli(${play_args} --threads 1 --precond chebyshev -o ${WORK_DIR}/chebyshev.csv)
run_cli(diff ${GOLDEN} ${WORK_DIR}/chebyshev.csv --tol 1e-4)

run_cli_expect_failure("unknown preconditioner `ssor` \\(expected ilu0 or chebyshev\\)"
                       ${play_args} --precond ssor -o ${WORK_DIR}/ssor.csv)
run_cli_expect_failure("unknown option `--cold-start` for play"
                       ${play_args} --cold-start -o ${WORK_DIR}/cold.csv)
