# The quick datacenter figure (4, 64 and 256 cores) must reproduce
# goldens/datacenter.json byte for byte. This is the scheduler-at-scale
# identity check: the 64- and 256-core points pick cores through many
# scheduler groups.
#
#   cmake -DUNISON_SIM_BIN=<unison_sim> -DGOLDEN=<datacenter.json>
#         -DWORK_DIR=<dir> -P datacenter_golden_test.cmake

file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})

execute_process(
  COMMAND ${UNISON_SIM_BIN} --figure datacenter --quick --format json
          --out ${WORK_DIR}/datacenter.json
  RESULT_VARIABLE rc
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "datacenter figure failed (${rc}):\n${err}")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files ${GOLDEN}
          ${WORK_DIR}/datacenter.json
  RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR
    "datacenter figure differs from ${GOLDEN} "
    "(output kept in ${WORK_DIR}/datacenter.json)")
endif()
