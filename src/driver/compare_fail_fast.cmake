# --fail-fast determinism: the run aborts on the first failed unit in
# function-major merge order, so the fatal stderr line and exit 3 must
# not depend on how units execute — in process at --jobs 1 or --jobs 4,
# or across --shards 2 worker processes.
#
# Usage:
#   cmake -DMCCHECK=<path> -DPROTOCOL=<name> -DFAULT=<site:n>
#         -P compare_fail_fast.cmake
foreach(var MCCHECK PROTOCOL FAULT)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR
            "compare_fail_fast.cmake: -D${var}=... is required")
    endif()
endforeach()

set(runs "jobs1:--jobs,1" "jobs4:--jobs,4" "shards2:--shards,2")
foreach(run IN LISTS runs)
    string(REPLACE ":" ";" parts "${run}")
    list(GET parts 0 tag)
    list(GET parts 1 extra)
    string(REPLACE "," ";" extra "${extra}")
    execute_process(
        COMMAND ${MCCHECK} --protocol ${PROTOCOL} --format json --fail-fast
                --inject-fault ${FAULT} ${extra}
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err_${tag}
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 3)
        message(FATAL_ERROR
            "--fail-fast ${tag} exited ${rc}, expected 3\n"
            "stderr: ${err_${tag}}")
    endif()
    if(NOT out STREQUAL "")
        message(FATAL_ERROR "--fail-fast ${tag} printed findings: ${out}")
    endif()
endforeach()

if(NOT err_jobs1 MATCHES "^mccheck: unit '[^']+/[^']+' failed: ")
    message(FATAL_ERROR "unexpected --fail-fast message: ${err_jobs1}")
endif()
foreach(tag jobs4 shards2)
    if(NOT err_jobs1 STREQUAL err_${tag})
        message(FATAL_ERROR
            "--fail-fast stderr differs between jobs1 and ${tag}:\n"
            "jobs1: ${err_jobs1}${tag}: ${err_${tag}}")
    endif()
endforeach()
message(STATUS "${PROTOCOL} --fail-fast under ${FAULT}: ${err_jobs1}")
