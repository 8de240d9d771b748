# Installs a failmine build tree under WORK_DIR, then configures, builds
# and runs the find_package(failmine) consumer in this directory against
# it. Invoked by the install_consumer test as:
#   cmake -DBUILD_DIR=... -DWORK_DIR=... -DSOURCE_DIR=... -DGENERATOR=...
#         -DCXX=... -DBUILD_TYPE=... -DCXX_FLAGS=... -DLIBRARIES=...
#         -P run.cmake

function(run step)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE result)
  if(NOT result EQUAL 0)
    message(FATAL_ERROR "${step} failed: ${result}")
  endif()
endfunction()

# Escaped so that run() hands the list on as one argument.
string(REPLACE ";" "\\;" libraries "${LIBRARIES}")

file(REMOVE_RECURSE "${WORK_DIR}")
run(install ${CMAKE_COMMAND} --install "${BUILD_DIR}"
    --prefix "${WORK_DIR}/prefix")
run(configure ${CMAKE_COMMAND} -S "${SOURCE_DIR}" -B "${WORK_DIR}/build"
    -G "${GENERATOR}" "-DCMAKE_CXX_COMPILER=${CXX}"
    "-DCMAKE_BUILD_TYPE=${BUILD_TYPE}"
    "-DCMAKE_CXX_FLAGS=${CXX_FLAGS}" "-DCMAKE_EXE_LINKER_FLAGS=${CXX_FLAGS}"
    "-DCMAKE_PREFIX_PATH=${WORK_DIR}/prefix"
    "-DFAILMINE_LIBRARIES=${libraries}")
run(build ${CMAKE_COMMAND} --build "${WORK_DIR}/build")
run(consumer "${WORK_DIR}/build/consumer")
