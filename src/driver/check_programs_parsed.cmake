# Compile-once check: a run parses each built-in metal checker exactly
# once, however many (function, checker) units build a checker — at
# --jobs 1 and --jobs 4, uncached, filling a cache and replaying it warm.
#
# Usage:
#   cmake -DMCCHECK=<path> -DPROTOCOL=<name> -DWORKDIR=<scratch dir>
#         -P check_programs_parsed.cmake
foreach(var MCCHECK PROTOCOL WORKDIR)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR
            "check_programs_parsed.cmake: -D${var}=... is required")
    endif()
endforeach()

file(REMOVE_RECURSE ${WORKDIR})
file(MAKE_DIRECTORY ${WORKDIR})

foreach(jobs 1 4)
    set(cache_dir ${WORKDIR}/cache_j${jobs})
    foreach(run "uncached" "cold;--cache;${cache_dir}"
                "warm;--cache;${cache_dir}")
        list(POP_FRONT run tag)
        set(metrics ${WORKDIR}/${tag}_j${jobs}.metrics.json)
        execute_process(
            COMMAND ${MCCHECK} --protocol ${PROTOCOL} --format json
                    --jobs ${jobs} --metrics ${metrics} ${run}
            OUTPUT_QUIET
            ERROR_VARIABLE err
            RESULT_VARIABLE rc)
        # The corpus protocols carry intentional bugs: exit 1.
        if(NOT rc EQUAL 1)
            message(FATAL_ERROR
                "${tag} run at --jobs ${jobs} exited ${rc}: ${err}")
        endif()
        file(READ ${metrics} report)
        if(NOT report MATCHES "\"metal.programs_parsed\": 2,")
            message(FATAL_ERROR
                "${tag} run at --jobs ${jobs}: expected "
                "metal.programs_parsed == 2\nmetrics: ${report}")
        endif()
        if(tag STREQUAL "warm" AND
           NOT report MATCHES "\"cache.misses\": 0,")
            message(FATAL_ERROR
                "warm run at --jobs ${jobs} missed the cache\n"
                "metrics: ${report}")
        endif()
    endforeach()
endforeach()
