# Adds the benchmark program to the libmaxmin build. run.py configures the
# repository root with
#   -DCMAKE_PROJECT_libmaxmin_INCLUDE=<this file>
# so CMake reads it right after the root project() call; the program then
# compiles and links with exactly the flags, build type and libraries the
# repository itself ships, and nothing in the repository's own build files
# has to know about it. Link items resolve at generate time, so naming the
# library targets before they are defined is fine.
add_executable(perfbench_sim ${CMAKE_CURRENT_LIST_DIR}/sim.cpp)
target_link_libraries(perfbench_sim PRIVATE maxmin_analysis maxmin_options)
