# Package configuration of an installed failmine. The exported libraries
# link Threads::Threads, so find it before loading them.
include(CMakeFindDependencyMacro)
find_dependency(Threads)
include("${CMAKE_CURRENT_LIST_DIR}/failmineTargets.cmake")
