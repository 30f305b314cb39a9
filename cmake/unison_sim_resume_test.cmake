# ctest helper: the crash-safety contract of --store and
# --warm-ckpt-dir, driven end-to-end through the unison_sim binary.
#
#  1. a store prefilled by one shard of the smoke grid, then a full
#     --store run killed (deterministically, via the UNISON_FAULT
#     write-kill injection: _exit(137) at an exact byte of the first
#     new object's temp file): rerunning the same command completes
#     the sweep byte-identically to an uninterrupted run, serving at
#     least the prefilled points from the store;
#  2. rerunning the completed sweep replays every point, again
#     byte-identically;
#  3. a corrupt warm-checkpoint file (read-corrupt injection) is
#     rejected with a structured warning and the run falls back to a
#     cold warm-up, byte-identical to a store-less run;
#  4. the classified exit codes hold: 2 for usage errors, 3 for I/O,
#     4 for corrupt input.
#
# Invoked as:
#   cmake -DUNISON_SIM_BIN=<path> -DSMOKE_SPEC=<specs/smoke.json>
#         -DWORK_DIR=<dir> -P unison_sim_resume_test.cmake
if(NOT UNISON_SIM_BIN)
  message(FATAL_ERROR "UNISON_SIM_BIN not set")
endif()
if(NOT SMOKE_SPEC)
  message(FATAL_ERROR "SMOKE_SPEC not set")
endif()
if(NOT WORK_DIR)
  message(FATAL_ERROR "WORK_DIR not set")
endif()
file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})

# Store hits a run reported on stderr ("store <dir>: N hit(s), ...").
function(store_hits err out_var)
  if(NOT err MATCHES "store [^\n]*: ([0-9]+) hit\\(s\\), ([0-9]+) insert")
    message(FATAL_ERROR "no store summary on stderr:\n${err}")
  endif()
  set(${out_var} ${CMAKE_MATCH_1} PARENT_SCOPE)
endfunction()

# ----------------------------------------------------------- golden
execute_process(
  COMMAND ${UNISON_SIM_BIN} --spec ${SMOKE_SPEC} --format json
          --out ${WORK_DIR}/golden.json
  RESULT_VARIABLE rc ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "uninterrupted run failed (${rc}):\n${err}")
endif()
file(READ ${WORK_DIR}/golden.json golden)

# ------------------------------------------- prefill with one shard
set(store ${WORK_DIR}/store)
execute_process(
  COMMAND ${UNISON_SIM_BIN} --spec ${SMOKE_SPEC} --format json
          --shard 0/2 --store ${store} --out ${WORK_DIR}/shard0.json
  RESULT_VARIABLE rc ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "prefill run failed (${rc}):\n${err}")
endif()
file(GLOB prefilled ${store}/objects/*.res)
list(LENGTH prefilled n_prefilled)
if(n_prefilled EQUAL 0)
  message(FATAL_ERROR "the prefill run published no store objects")
endif()

# ---------------------------------- kill while publishing, then rerun
# Die halfway into the temp file of the first object the full run
# publishes: the prefilled points are hits, the first fresh point is
# lost mid-write. Object sizes depend on their JSON payloads, so the
# kill offset is computed, not hard-coded.
list(GET prefilled 0 first_object)
file(SIZE ${first_object} object_size)
math(EXPR kill_at "${object_size} / 2")
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env
          "UNISON_FAULT=write-kill@/objects/.tmp.:${kill_at}"
          ${UNISON_SIM_BIN} --spec ${SMOKE_SPEC} --format json
          --store ${store} --out ${WORK_DIR}/crashed.json
  RESULT_VARIABLE rc ERROR_VARIABLE err)
if(NOT rc EQUAL 137)
  message(FATAL_ERROR
    "expected the injected kill (exit 137) at temp-object byte "
    "${kill_at}, got exit ${rc}:\n${err}")
endif()
if(EXISTS ${WORK_DIR}/crashed.json)
  message(FATAL_ERROR "killed run must not have written its output")
endif()
file(GLOB survivors ${store}/objects/*.res)
list(LENGTH survivors n_survivors)
if(NOT n_survivors EQUAL n_prefilled)
  message(FATAL_ERROR
    "killed run left ${n_survivors} objects, expected ${n_prefilled}")
endif()
file(GLOB torn ${store}/objects/.tmp.*)
list(LENGTH torn n_torn)
if(NOT n_torn EQUAL 1)
  message(FATAL_ERROR "expected one torn temp object, found ${n_torn}")
endif()
file(SIZE ${torn} torn_size)
if(NOT torn_size EQUAL ${kill_at})
  message(FATAL_ERROR
    "kill injection persisted ${torn_size}B, expected ${kill_at}B")
endif()

execute_process(
  COMMAND ${UNISON_SIM_BIN} --spec ${SMOKE_SPEC} --format json
          --store ${store} --out ${WORK_DIR}/resumed.json
  RESULT_VARIABLE rc ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "rerun after kill failed (${rc}):\n${err}")
endif()
store_hits("${err}" hits)
if(hits LESS n_prefilled)
  message(FATAL_ERROR
    "rerun served ${hits} store hit(s), expected at least "
    "${n_prefilled}:\n${err}")
endif()
file(READ ${WORK_DIR}/resumed.json resumed)
if(NOT golden STREQUAL resumed)
  message(FATAL_ERROR
    "kill+rerun output differs from the uninterrupted run\n"
    "--- golden ---\n${golden}\n--- resumed ---\n${resumed}")
endif()

# --------------------------------------- rerun of a completed sweep
execute_process(
  COMMAND ${UNISON_SIM_BIN} --spec ${SMOKE_SPEC} --format json
          --store ${store} --out ${WORK_DIR}/replayed.json
  RESULT_VARIABLE rc ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "full replay failed (${rc}):\n${err}")
endif()
store_hits("${err}" hits)
file(GLOB objects ${store}/objects/*.res)
list(LENGTH objects n_objects)
if(NOT hits EQUAL n_objects)
  message(FATAL_ERROR
    "completed sweep served ${hits} of ${n_objects} points:\n${err}")
endif()
file(READ ${WORK_DIR}/replayed.json replayed)
if(NOT golden STREQUAL replayed)
  message(FATAL_ERROR "full store replay differs from golden")
endif()

# -------------------------- corrupt warm checkpoint: graceful fallback
# A two-point grid sharing one warm prefix (explicit warmupAccesses),
# so --warm-ckpt-dir has something to persist.
file(WRITE ${WORK_DIR}/warm.json "{
  \"schema\": \"unison-grid/1\",
  \"name\": \"warmtest\",
  \"points\": [
    {
      \"label\": \"alloy/short\",
      \"spec\": {
        \"schema\": \"unison-spec/3\",
        \"workload\": \"webserving\",
        \"design\": {\"name\": \"alloy\", \"missPredictor\": true},
        \"capacityBytes\": 33554432,
        \"accesses\": 100000,
        \"quick\": false,
        \"seed\": 42,
        \"system\": {
          \"numCores\": 4, \"cpiBase\": 2,
          \"maxOutstandingMisses\": 4,
          \"warmFraction\": 0.6666666666666666,
          \"warmupAccesses\": 50000, \"perCoreAccessBudget\": 0,
          \"engineThreads\": 1, \"memoryBackend\": \"fast\"
        }
      }
    },
    {
      \"label\": \"alloy/long\",
      \"spec\": {
        \"schema\": \"unison-spec/3\",
        \"workload\": \"webserving\",
        \"design\": {\"name\": \"alloy\", \"missPredictor\": true},
        \"capacityBytes\": 33554432,
        \"accesses\": 150000,
        \"quick\": false,
        \"seed\": 42,
        \"system\": {
          \"numCores\": 4, \"cpiBase\": 2,
          \"maxOutstandingMisses\": 4,
          \"warmFraction\": 0.6666666666666666,
          \"warmupAccesses\": 50000, \"perCoreAccessBudget\": 0,
          \"engineThreads\": 1, \"memoryBackend\": \"fast\"
        }
      }
    }
  ]
}
")

execute_process(
  COMMAND ${UNISON_SIM_BIN} --spec ${WORK_DIR}/warm.json
          --format json --out ${WORK_DIR}/warm_golden.json
  RESULT_VARIABLE rc ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "warm golden run failed (${rc}):\n${err}")
endif()

# Populate the store...
execute_process(
  COMMAND ${UNISON_SIM_BIN} --spec ${WORK_DIR}/warm.json
          --format json --warm-ckpt-dir ${WORK_DIR}/ckpts
          --out ${WORK_DIR}/warm_store.json
  RESULT_VARIABLE rc ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "store-populating run failed (${rc}):\n${err}")
endif()
file(GLOB ckpt_files ${WORK_DIR}/ckpts/*.ckpt)
list(LENGTH ckpt_files n_ckpts)
if(n_ckpts EQUAL 0)
  message(FATAL_ERROR "--warm-ckpt-dir persisted no checkpoint files")
endif()
file(READ ${WORK_DIR}/warm_golden.json warm_golden)
file(READ ${WORK_DIR}/warm_store.json warm_store)
if(NOT warm_golden STREQUAL warm_store)
  message(FATAL_ERROR "checkpoint store perturbed the results")
endif()

# ...then reuse it with every checkpoint read corrupted in flight: the
# run must warn, fall back to a cold warm-up, and still match.
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env "UNISON_FAULT=read-corrupt@.ckpt:40"
          ${UNISON_SIM_BIN} --spec ${WORK_DIR}/warm.json
          --format json --warm-ckpt-dir ${WORK_DIR}/ckpts
          --out ${WORK_DIR}/warm_corrupt.json
  RESULT_VARIABLE rc ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR
    "corrupt-checkpoint run must degrade, not fail (${rc}):\n${err}")
endif()
string(FIND "${err}" "checkpoint-rejected" found)
if(found EQUAL -1)
  message(FATAL_ERROR
    "corrupt checkpoint was not reported:\n${err}")
endif()
file(READ ${WORK_DIR}/warm_corrupt.json warm_corrupt)
if(NOT warm_golden STREQUAL warm_corrupt)
  message(FATAL_ERROR
    "corrupt-checkpoint fallback changed the numbers")
endif()

# --------------------------------------------- classified exit codes
execute_process(
  COMMAND ${UNISON_SIM_BIN} --merge ${WORK_DIR}/shard0.json
          --store ${store}
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR
    "--store on a --merge must exit 2 (usage), got ${rc}")
endif()

execute_process(
  COMMAND ${UNISON_SIM_BIN} --spec ${SMOKE_SPEC} --shard 2/2
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR
    "--shard 2/2 (index out of range) must exit 2 (usage), got ${rc}")
endif()

file(WRITE ${WORK_DIR}/bad.json "{\"schema\": \"unison-grid/1\", ")
execute_process(
  COMMAND ${UNISON_SIM_BIN} --spec ${WORK_DIR}/bad.json
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 4)
  message(FATAL_ERROR
    "truncated spec JSON must exit 4 (corrupt input), got ${rc}")
endif()

execute_process(
  COMMAND ${UNISON_SIM_BIN} --spec ${WORK_DIR}/missing.json
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 3)
  message(FATAL_ERROR
    "missing spec file must exit 3 (I/O), got ${rc}")
endif()
