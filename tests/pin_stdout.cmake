# Runs BIN with `--threads 2`, hashes its stdout with SHA-256 and
# compares the hash with SHA256; on a mismatch (or a nonzero exit) it
# prints both hashes and the output. The environment (CLOUDMC_FAST,
# CLOUDMC_CACHE) comes from the calling test.
#
#   cmake -DBIN=<binary> -DSHA256=<hex> -P pin_stdout.cmake
cmake_minimum_required(VERSION 3.16)
execute_process(COMMAND ${BIN} --threads 2
  OUTPUT_VARIABLE out
  RESULT_VARIABLE rc)
string(SHA256 got "${out}")
if(NOT rc EQUAL 0 OR NOT got STREQUAL SHA256)
  message(FATAL_ERROR "${BIN} exited ${rc}\n"
    "stdout SHA-256: ${got}\npinned SHA-256: ${SHA256}\n${out}")
endif()
