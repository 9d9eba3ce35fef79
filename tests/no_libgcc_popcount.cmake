# Fails if any library in LIBS references libgcc's __popcountdi2, the
# out-of-line call std::popcount compiles to when the target has no
# popcnt instruction (the build sets none). Prints a SKIPPED notice when
# no nm tool was found.
# Usage: cmake -DNM=<nm> "-DLIBS=<lib>|<lib>|..." -P no_libgcc_popcount.cmake
if(NOT NM OR NOT EXISTS "${NM}")
  message("SKIPPED: no nm tool found, the libraries were not inspected")
  return()
endif()
string(REPLACE "|" ";" libs "${LIBS}")
if(NOT libs)
  message(FATAL_ERROR "no libraries given")
endif()
set(hits "")
foreach(lib IN LISTS libs)
  execute_process(COMMAND "${NM}" -A "${lib}"
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${NM} -A ${lib} exited with ${rc}:\n${err}")
  endif()
  string(REGEX MATCHALL "[^\n]*[ \t]U[ \t]+__popcountdi2[^\n]*" found "${out}")
  list(APPEND hits ${found})
endforeach()
if(hits)
  string(REPLACE ";" "\n" hits "${hits}")
  message(FATAL_ERROR "libgcc popcount calls (use an inline bit count):\n${hits}")
endif()
list(LENGTH libs count)
message("${count} libraries, no __popcountdi2 reference")
