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
# would otherwise start serving; the timeout catches that). So do serving
# settings admission cannot honour: a batch cap above a non-zero global
# cap (an internal check used to exit 1) and a degrade wait that is NaN or
# negative (the daemon used to serve with its overload ladder disarmed).
foreach(case "SOLVE;--help" "PACK;info;x" "SOLVE;--eps1=abc"
             "SOLVE;--instance=${instance};--eps1=nan"
             "SERVE;--socket=${WORK_DIR}/smoke.sock;--max-pending=-1;--cache-capacity=-1"
             "SERVE;--socket=${WORK_DIR}/smoke.sock;--max-pending=4;--max-pending-batch=8"
             "SERVE;--socket=${WORK_DIR}/smoke.sock;--degrade-wait=nan"
             "SERVE;--socket=${WORK_DIR}/smoke.sock;--degrade-wait=-3")
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
# (never std::terminate): a missing file, a vertex count past int32, which
# must not wrap into a different valid instance, and a vertex count past
# the file's size, which must be refused before anything is sized.
set(malformed "${WORK_DIR}/malformed.kri")
file(WRITE ${malformed} "p krsp 4294967299 2\n")
set(too_many "${WORK_DIR}/too_many_vertices.kri")
file(WRITE ${too_many} "p krsp 1000000 0\nq 0 1 1 5\n")
set(file_errors
    "line 1, column 8: vertex count 4294967299 overflows 32 bits"
    "cannot open"
    "line 1, column 17: vertex count 1000000 exceeds the input size \\(27 bytes\\)")
list(JOIN file_errors "|" file_errors)
foreach(case "SOLVE;--instance=${malformed}" "BATCH;--instances=${malformed}"
             "SOLVE;--instance=${WORK_DIR}/no_such_file.kri"
             "SOLVE;--instance=${too_many}"
             "PACK;--in=${too_many};--out=${WORK_DIR}/too_many_vertices.krspb")
  list(POP_FRONT case tool)
  execute_process(
    COMMAND ${KRSP_${tool}} ${case}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 1 OR NOT err MATCHES "${file_errors}")
    message(FATAL_ERROR "bad input file '${case}' gave (${rc}): ${out}${err}")
  endif()
endforeach()
