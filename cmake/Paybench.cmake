# Tier-1 check that the live payment benchmark still builds and runs
# its harness tests.
#
# paybench/ is a CMake package of its own that compiles ../src with
# warnings as errors (see paybench/CMakeLists.txt), so a change to an
# API it uses can break the benchmark without breaking this build. The
# `paybench_build` ctest entry configures that package into
# <build>/paybench (Release, as paybench/run.py does), builds it and
# runs paybench_harness_test. It is a second compile of src/, so it is
# RUN_SERIAL: a parallel ctest does not run it beside the
# timing-sensitive live tests.
#
# Included from the top-level CMakeLists.txt, this file registers the
# entry; run with `cmake -P`, it performs the three steps.

if(CMAKE_SCRIPT_MODE_FILE)
  # -DPAYBENCH_SOURCE=... -DPAYBENCH_BINARY=... -DPAYBENCH_GENERATOR=...
  # -DPAYBENCH_CXX=...
  cmake_host_system_information(RESULT _jobs
    QUERY NUMBER_OF_LOGICAL_CORES)
  if(_jobs GREATER 4)
    set(_jobs 4)
  endif()
  execute_process(
    COMMAND "${CMAKE_COMMAND}" -S "${PAYBENCH_SOURCE}"
            -B "${PAYBENCH_BINARY}" -G "${PAYBENCH_GENERATOR}"
            -DCMAKE_BUILD_TYPE=Release
            "-DCMAKE_CXX_COMPILER=${PAYBENCH_CXX}"
    RESULT_VARIABLE _rc)
  if(NOT _rc EQUAL 0)
    message(FATAL_ERROR "paybench: configure failed (${_rc})")
  endif()
  execute_process(
    COMMAND "${CMAKE_COMMAND}" --build "${PAYBENCH_BINARY}" -j ${_jobs}
    RESULT_VARIABLE _rc)
  if(NOT _rc EQUAL 0)
    message(FATAL_ERROR "paybench: build failed (${_rc})")
  endif()
  execute_process(
    COMMAND "${PAYBENCH_BINARY}/paybench_harness_test"
    RESULT_VARIABLE _rc)
  if(NOT _rc EQUAL 0)
    message(FATAL_ERROR "paybench: paybench_harness_test failed (${_rc})")
  endif()
  return()
endif()

if(ZLB_BUILD_TESTS AND ZLB_BUILD_BENCH)
  add_test(NAME paybench_build
    COMMAND "${CMAKE_COMMAND}"
            "-DPAYBENCH_SOURCE=${CMAKE_CURRENT_SOURCE_DIR}/paybench"
            "-DPAYBENCH_BINARY=${CMAKE_BINARY_DIR}/paybench"
            "-DPAYBENCH_GENERATOR=${CMAKE_GENERATOR}"
            "-DPAYBENCH_CXX=${CMAKE_CXX_COMPILER}"
            -P "${CMAKE_CURRENT_LIST_FILE}")
  set_tests_properties(paybench_build PROPERTIES
    RUN_SERIAL TRUE
    TIMEOUT 1800
    LABELS "bench")
endif()
