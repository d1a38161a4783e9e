# End-to-end CLI smoke test: krsp_gen -> krsp_solve in all three modes,
# the batch engine, malformed command lines and bad input files.
set(instance "${WORK_DIR}/smoke.kri")
set(solution "${WORK_DIR}/smoke.krp")

execute_process(
  COMMAND ${KRSP_GEN} --family=er --n=14 --k=2 --seed=5 --out=${instance}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "krsp_gen failed (${rc}): ${out}${err}")
endif()

foreach(mode scaled exact phase1)
  execute_process(
    COMMAND ${KRSP_SOLVE} --instance=${instance} --mode=${mode}
            --out=${solution} --verbose
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "krsp_solve --mode=${mode} failed (${rc}): ${out}${err}")
  endif()
  if(NOT out MATCHES "status: (optimal|approx)")
    message(FATAL_ERROR "unexpected solver output for ${mode}: ${out}")
  endif()
endforeach()

# Back-compat: --eps must still be accepted, and the split knobs alongside.
execute_process(
  COMMAND ${KRSP_SOLVE} --instance=${instance} --eps=0.5
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "krsp_solve --eps alias failed (${rc}): ${out}${err}")
endif()
execute_process(
  COMMAND ${KRSP_SOLVE} --instance=${instance} --eps1=0.5 --eps2=0.1
          --guess=doubling --deadline=30
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "krsp_solve split-eps flags failed (${rc}): ${out}${err}")
endif()

# Batch engine round trip: same instance, several repeats, two workers.
execute_process(
  COMMAND ${KRSP_BATCH} --instances=${instance} --repeat=4 --threads=2
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "krsp_batch failed (${rc}): ${out}${err}")
endif()
if(NOT out MATCHES "throughput: ")
  message(FATAL_ERROR "unexpected krsp_batch output: ${out}")
endif()

# Malformed command lines print the error plus the usage line and exit 2
# (never an uncaught exception): an unknown flag, a positional argument,
# a value that is not a number, an eps that is not finite and > 0, and
# negative counts, which must not wrap into unbounded ones (the daemon
# would otherwise start serving; the timeout catches that).
foreach(case "SOLVE;--help" "PACK;info;x" "SOLVE;--eps1=abc"
             "SOLVE;--instance=${instance};--eps1=nan"
             "SERVE;--socket=${WORK_DIR}/smoke.sock;--max-pending=-1;--cache-capacity=-1")
  list(POP_FRONT case tool)
  execute_process(
    COMMAND ${KRSP_${tool}} ${case}
    TIMEOUT 30
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 2 OR NOT err MATCHES "usage: krsp_")
    message(FATAL_ERROR "bad command line '${case}' gave (${rc}): ${out}${err}")
  endif()
endforeach()

# An unreadable or malformed input file prints the error and exits 1
# (never std::terminate): a missing file, and a vertex count past int32,
# which must not wrap into a different valid instance.
set(malformed "${WORK_DIR}/malformed.kri")
file(WRITE ${malformed} "p krsp 4294967299 2\n")
foreach(case "SOLVE;--instance=${malformed}" "BATCH;--instances=${malformed}"
             "SOLVE;--instance=${WORK_DIR}/no_such_file.kri")
  list(POP_FRONT case tool)
  execute_process(
    COMMAND ${KRSP_${tool}} ${case}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 1 OR NOT err MATCHES
     "line 1, column 8: vertex count 4294967299 overflows 32 bits|cannot open")
    message(FATAL_ERROR "bad input file '${case}' gave (${rc}): ${out}${err}")
  endif()
endforeach()
