# Metal-mode differential guarantee: `mccheck --metal CHECKER FILES`
# runs the user state machine as (function x checker) units like every
# other mode, so its bytes must not depend on how the units execute.
# Over one emitted protocol corpus this harness requires:
#
#   1. --jobs 1 and --jobs 4 agree byte-for-byte (exit EXPECT_RC);
#   2. an uncached run, a cold --cache run and a warm --cache run agree
#      byte-for-byte, the warm run replaying every unit (zero misses);
#   3. --inject-fault checker.unit:5 degrades (exit 2) identically at
#      --jobs 1 and --jobs 4;
#   4. --unit-max-steps 5 degrades (exit 2) with budget-exhausted
#      markers.
#
# Usage:
#   cmake -DMCCHECK=<path> -DPROTOCOL=<name> -DMETAL=<checker.metal>
#         -DWORKDIR=<scratch dir> [-DEXPECT_RC=1] -P compare_metal.cmake
foreach(var MCCHECK PROTOCOL METAL WORKDIR)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "compare_metal.cmake: -D${var}=... is required")
    endif()
endforeach()
if(NOT DEFINED EXPECT_RC)
    set(EXPECT_RC 1)
endif()

file(REMOVE_RECURSE ${WORKDIR})
file(MAKE_DIRECTORY ${WORKDIR})
execute_process(
    COMMAND ${MCCHECK} --emit-corpus ${PROTOCOL} ${WORKDIR}/corpus
    RESULT_VARIABLE rc_emit
    ERROR_VARIABLE err_emit)
if(NOT rc_emit EQUAL 0)
    message(FATAL_ERROR
        "--emit-corpus ${PROTOCOL} failed (rc=${rc_emit}): ${err_emit}")
endif()
file(GLOB_RECURSE sources ${WORKDIR}/corpus/*.c)
list(SORT sources)
if(NOT sources)
    message(FATAL_ERROR "--emit-corpus ${PROTOCOL} wrote no .c files")
endif()

# run(<tag> <extra args...>): one metal-mode run as JSON, capturing
# out_<tag>/err_<tag>/rc_<tag> into the parent scope.
function(run tag)
    execute_process(
        COMMAND ${MCCHECK} --metal ${METAL} ${sources} --format json ${ARGN}
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err
        RESULT_VARIABLE rc)
    set(out_${tag} "${out}" PARENT_SCOPE)
    set(err_${tag} "${err}" PARENT_SCOPE)
    set(rc_${tag} "${rc}" PARENT_SCOPE)
endfunction()

# agree(<expected rc> <tags...>): every run exits <expected rc> and puts
# the first run's bytes on stdout; the first run must not be empty.
function(agree expected_rc first)
    if(out_${first} STREQUAL "")
        message(FATAL_ERROR
            "${first} run produced no stdout; the comparison is vacuous "
            "(rc=${rc_${first}}, stderr: ${err_${first}})")
    endif()
    foreach(tag ${first} ${ARGN})
        if(NOT rc_${tag} EQUAL expected_rc)
            message(FATAL_ERROR
                "${tag} run exited ${rc_${tag}}, expected ${expected_rc} "
                "(stderr: ${err_${tag}})")
        endif()
        if(NOT out_${first} STREQUAL out_${tag})
            message(FATAL_ERROR
                "stdout differs between the ${first} and ${tag} runs of "
                "${METAL} over ${PROTOCOL}")
        endif()
    endforeach()
endfunction()

run(j1 --jobs 1)
run(j4 --jobs 4)
agree(${EXPECT_RC} j1 j4)

set(cache_dir ${WORKDIR}/cache)
run(cold --jobs 4 --cache ${cache_dir})
run(warm --jobs 4 --cache ${cache_dir} --metrics ${WORKDIR}/warm.json)
agree(${EXPECT_RC} j1 cold warm)
file(READ ${WORKDIR}/warm.json warm_metrics)
if(NOT warm_metrics MATCHES "\"cache.hits\": [1-9]" OR
   NOT warm_metrics MATCHES "\"cache.misses\": 0[,\n ]")
    message(FATAL_ERROR
        "warm metal run did not replay every unit from the cache\n"
        "metrics: ${warm_metrics}")
endif()

run(fault_j1 --jobs 1 --inject-fault checker.unit:5)
run(fault_j4 --jobs 4 --inject-fault checker.unit:5)
agree(2 fault_j1 fault_j4)
if(NOT out_fault_j1 MATCHES "unit-failure")
    message(FATAL_ERROR "checker.unit:5 hit no metal unit")
endif()

run(budget --unit-max-steps 5)
agree(2 budget)
if(NOT out_budget MATCHES "analysis truncated: ")
    message(FATAL_ERROR "--unit-max-steps 5 truncated no metal unit")
endif()

message(STATUS
    "${METAL} over ${PROTOCOL}: jobs, cache, fault and budget runs agree")
