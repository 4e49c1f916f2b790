# Runs BIN with no arguments and checks that its stdout equals the file
# GOLDEN byte for byte. On a mismatch the output is kept in ACTUAL, so
# `diff GOLDEN ACTUAL` shows what moved.
#
#   cmake -DBIN=<binary> -DGOLDEN=<table.txt> -DACTUAL=<out.txt> -P compare_stdout.cmake
cmake_minimum_required(VERSION 3.16)

execute_process(COMMAND ${BIN} OUTPUT_VARIABLE actual RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BIN} exited with ${rc}")
endif()
file(READ ${GOLDEN} golden)
if(NOT actual STREQUAL golden)
  file(WRITE ${ACTUAL} "${actual}")
  message(FATAL_ERROR "stdout of ${BIN} differs from ${GOLDEN}; "
                      "run: diff ${GOLDEN} ${ACTUAL}")
endif()
file(REMOVE ${ACTUAL})
