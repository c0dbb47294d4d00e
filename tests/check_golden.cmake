# Runs one artifact binary at the fixed golden scale and diffs its stdout
# against the committed golden. Invoked by the golden_<binary> ctests with
# -DBIN=<binary path> -DGOLDEN=<tests/golden/<binary>.txt>
# -DACTUAL=<where to write this run's filtered stdout>.
#
# The `simd=... threads=...` banner line is dropped before the diff: it
# reports the host, and it is the only stdout line that differs between
# thread counts and lane widths. Everything else must match byte for byte.
# scripts/refresh_goldens.sh copies the ACTUAL files over the goldens; that
# is the only sanctioned way to change them.

foreach(var BIN GOLDEN ACTUAL)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_golden.cmake needs -D${var}=...")
  endif()
endforeach()

# The golden scale. Knobs that change stdout or write files are cleared so an
# operator's environment cannot leak into the comparison.
set(ENV{DPAUDIT_THREADS} 4)
set(ENV{DPAUDIT_REPS} 4)
set(ENV{DPAUDIT_MNIST_N} 8)
set(ENV{DPAUDIT_PURCHASE_N} 8)
set(ENV{DPAUDIT_EPOCHS} 3)
foreach(var DPAUDIT_SEED DPAUDIT_BATCH_LANES DPAUDIT_TRACE_CACHE
            DPAUDIT_TELEMETRY DPAUDIT_SWEEP_CHECKPOINT DPAUDIT_FAULT_INJECT)
  unset(ENV{${var}})
endforeach()

file(REMOVE ${ACTUAL})
execute_process(
  COMMAND ${BIN}
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE result)
if(NOT result EQUAL 0)
  message(FATAL_ERROR "${BIN} exited with ${result}:\n${err}")
endif()
string(REGEX REPLACE "(^|\n)simd=[^\n]* threads=[0-9]+\n" "\\1" out "${out}")
file(WRITE ${ACTUAL} "${out}")

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files ${GOLDEN} ${ACTUAL}
  RESULT_VARIABLE differs)
if(differs)
  if(NOT EXISTS ${GOLDEN})
    message(FATAL_ERROR "no golden at ${GOLDEN} (this run: ${ACTUAL})")
  endif()
  execute_process(COMMAND diff -u ${GOLDEN} ${ACTUAL})
  message(FATAL_ERROR "stdout differs from ${GOLDEN} (this run: ${ACTUAL})")
endif()
