# Run unison_sim with the given arguments and byte-compare the JSON it
# writes against a committed golden. Registered once per golden in
# CMakeLists.txt; nothing is ever regenerated here.
#
#   cmake -DUNISON_SIM_BIN=<unison_sim> "-DSIM_ARGS=<args>"
#         -DGOLDEN=<golden.json> -DWORK_DIR=<dir>
#         -P golden_compare_test.cmake
#
# SIM_ARGS is one space-separated string (shell-style quoting allowed);
# the script appends `--format json --out <WORK_DIR>/<golden name>`.

file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})

separate_arguments(args UNIX_COMMAND "${SIM_ARGS}")
get_filename_component(name ${GOLDEN} NAME)
set(out ${WORK_DIR}/${name})

execute_process(
  COMMAND ${UNISON_SIM_BIN} ${args} --format json --out ${out}
  RESULT_VARIABLE rc
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "unison_sim ${SIM_ARGS} failed (${rc}):\n${err}")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files ${GOLDEN} ${out}
  RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR
    "unison_sim ${SIM_ARGS} differs from ${GOLDEN} (output kept in ${out})")
endif()
