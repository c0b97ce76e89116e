# Configures a second build tree with ASan+UBSan, builds the fault-injection
# and ingestion-hardening tests, and runs them there. Registered as the
# `fault_tests_asan_ubsan` ctest by tests/CMakeLists.txt (only when the main
# build itself is unsanitized), so `ctest` on a default build also proves
# "no corrupted input crashes the readers" under the sanitizers.
#
# Invoked as:
#   cmake -DSOURCE_DIR=<repo> -DBUILD_DIR=<build>/fault-san
#         -P run_sanitized_fault_tests.cmake

foreach(var SOURCE_DIR BUILD_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "${var} must be passed with -D${var}=...")
  endif()
endforeach()

set(tests
  runtime_fault_injection_test
  runtime_supervised_test
  tcp_cc_conformance_test
  tcp_scoreboard_flat_test
  tcp_vegas_test
  tcp_westwood_test
  ingest_corpus_test
  pcap_error_golden_test
  analysis_flows_from_pcap_test
  core_insufficient_test
  campaign_resume_test
  ml_presort_equivalence_test
  mlab_rowstore_test
  stream_flow_table_test
  stream_vs_batch_test
  pcap_tail_test
  service_fault_test
  service_admin_test
  obs_window_test
)

message(STATUS "[fault-san] configuring sanitized tree in ${BUILD_DIR}")
execute_process(
  COMMAND ${CMAKE_COMMAND} -S ${SOURCE_DIR} -B ${BUILD_DIR}
          -DCMAKE_BUILD_TYPE=RelWithDebInfo
          -DCCSIG_ENABLE_ASAN=ON
          -DCCSIG_ENABLE_UBSAN=ON
          # The sanitized tree must not recursively register this script.
          -DCCSIG_SANITIZED_FAULT_TESTS=OFF
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "[fault-san] configure failed (${rc})")
endif()

include(ProcessorCount)
ProcessorCount(nproc)
if(nproc EQUAL 0)
  set(nproc 2)
endif()

message(STATUS "[fault-san] building ${tests}")
execute_process(
  COMMAND ${CMAKE_COMMAND} --build ${BUILD_DIR} --parallel ${nproc}
          --target ${tests}
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "[fault-san] build failed (${rc})")
endif()

# Undefined behaviour must fail the test, not just print.
set(ENV{UBSAN_OPTIONS} "halt_on_error=1:print_stacktrace=1")
set(ENV{ASAN_OPTIONS} "detect_leaks=0")
# The stream/batch differential corpus is 8x slower under the sanitizers;
# a 25-trace corpus keeps this run under the timeout while still covering
# multi-flow and multi-jobs cases.
set(ENV{CCSIG_STREAM_DIFF_COUNT} "25")

list(JOIN tests "|" test_regex)
message(STATUS "[fault-san] running sanitized tests")
execute_process(
  COMMAND ${CMAKE_CTEST_COMMAND} --test-dir ${BUILD_DIR}
          -R "^(${test_regex})$" --output-on-failure
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "[fault-san] sanitized tests failed (${rc})")
endif()
message(STATUS "[fault-san] all sanitized fault tests passed")
