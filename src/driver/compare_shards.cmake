# Sharded-checking differential guarantee: `mccheck --shards N` must put
# the exact bytes on stdout that the in-process run produces, at every
# shard count — and keep doing so while workers are being crashed, hung,
# or failed at merge time by injected faults.
#
# Clean mode (no -DFAULT): a plain run (no --shards) is the baseline;
# --shards 1, 2 and 4 must match it byte-for-byte with the same exit
# code.
#
# Fault mode (-DFAULT=<site:n>): every shard count in SHARDS runs with
# the fault armed (and --shard-backoff-ms 1 so retries don't stall the
# test); all runs must agree byte-for-byte with the first, and each must
# exit with EXPECT_RC (2 = degraded: the poisoned units quarantined into
# engine.unit-failure warnings). There is no unsharded baseline here —
# worker.* faults only exist across the process boundary — but the clean
# tests already pin the sharded bytes to the in-process bytes, so
# agreement among fault runs proves containment is deterministic too.
#
# Same-args mode (-DSAME_ARGS=<arg,arg,...>, no FAULT): the listed
# arguments go to the plain run and to every shard run alike, so an
# in-process containment outcome — a checker.unit fault, a step budget —
# must come out of the shard workers with the same bytes and the same
# EXPECT_RC as it does in process.
#
# Usage:
#   cmake -DMCCHECK=<path> -DPROTOCOL=<name> -DFORMAT=<text|json|sarif>
#         -DWORKDIR=<scratch dir> [-DMODE=protocol]
#         [-DFAULT=<site:n>] [-DSAME_ARGS=<arg,...>] [-DEXPECT_RC=<n>]
#         [-DSHARDS=2,4] [-DBATCH_TIMEOUT_MS=<ms>] [-DBATCH_UNITS=<n>]
#         -P compare_shards.cmake
#
# Text output in protocol mode carries a wall-clock stats table, so text
# comparisons belong in file mode (MODE=files, the default), same as the
# cache and daemon harnesses.
foreach(var MCCHECK PROTOCOL FORMAT WORKDIR)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "compare_shards.cmake: -D${var}=... is required")
    endif()
endforeach()
if(NOT DEFINED MODE)
    set(MODE files)
endif()
if(NOT DEFINED SHARDS)
    if(DEFINED FAULT)
        set(SHARDS "2,4")
    else()
        set(SHARDS "1,2,4")
    endif()
endif()
string(REPLACE "," ";" shard_counts "${SHARDS}")

file(REMOVE_RECURSE ${WORKDIR})
file(MAKE_DIRECTORY ${WORKDIR})

if(MODE STREQUAL "protocol")
    set(check_args --protocol ${PROTOCOL})
else()
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
    list(LENGTH sources nsources)
    if(nsources EQUAL 0)
        message(FATAL_ERROR "--emit-corpus ${PROTOCOL} wrote no .c files")
    endif()
    set(check_args ${sources})
endif()

set(fault_args)
if(DEFINED SAME_ARGS)
    string(REPLACE "," ";" fault_args "${SAME_ARGS}")
endif()
if(DEFINED FAULT)
    list(APPEND fault_args --inject-fault ${FAULT} --shard-backoff-ms 1)
endif()
if(DEFINED BATCH_TIMEOUT_MS)
    list(APPEND fault_args --shard-batch-timeout-ms ${BATCH_TIMEOUT_MS})
endif()
if(DEFINED BATCH_UNITS)
    list(APPEND fault_args --shard-batch-units ${BATCH_UNITS})
endif()

# run(<tag> <extra args...>): one mccheck invocation capturing
# out_<tag>/err_<tag>/rc_<tag> into the parent scope.
function(run tag)
    execute_process(
        COMMAND ${MCCHECK} ${check_args} --format ${FORMAT}
                ${fault_args} ${ARGN}
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err
        RESULT_VARIABLE rc)
    set(out_${tag} "${out}" PARENT_SCOPE)
    set(err_${tag} "${err}" PARENT_SCOPE)
    set(rc_${tag} "${rc}" PARENT_SCOPE)
endfunction()

if(DEFINED FAULT)
    list(GET shard_counts 0 base_shards)
    set(base_tag s${base_shards})
else()
    run(plain)
    if(out_plain STREQUAL "")
        message(FATAL_ERROR
            "plain run produced no stdout for ${PROTOCOL} (${FORMAT}); the "
            "comparison is vacuous (rc=${rc_plain}, stderr: ${err_plain})")
    endif()
    set(base_tag plain)
endif()

foreach(n IN LISTS shard_counts)
    run(s${n} --shards ${n})
endforeach()

if(DEFINED FAULT AND out_${base_tag} STREQUAL "")
    message(FATAL_ERROR
        "--shards ${base_shards} under ${FAULT} produced no stdout for "
        "${PROTOCOL} (${FORMAT}); the comparison is vacuous "
        "(rc=${rc_${base_tag}}, stderr: ${err_${base_tag}})")
endif()

set(tags ${base_tag})
foreach(n IN LISTS shard_counts)
    list(APPEND tags s${n})
endforeach()
foreach(tag IN LISTS tags)
    if(DEFINED EXPECT_RC)
        if(NOT rc_${tag} EQUAL ${EXPECT_RC})
            message(FATAL_ERROR
                "the ${tag} run under ${FAULT}${SAME_ARGS} exited "
                "${rc_${tag}}, expected ${EXPECT_RC} for ${PROTOCOL} "
                "(${FORMAT})\nstderr: ${err_${tag}}")
        endif()
    endif()
endforeach()

foreach(n IN LISTS shard_counts)
    if(NOT rc_${base_tag} EQUAL rc_s${n})
        message(FATAL_ERROR
            "exit codes differ for ${PROTOCOL} (${FORMAT}): ${base_tag} -> "
            "${rc_${base_tag}}, --shards ${n} -> ${rc_s${n}}\n"
            "stderr(s${n}): ${err_s${n}}")
    endif()
    if(NOT out_${base_tag} STREQUAL out_s${n})
        message(FATAL_ERROR
            "stdout differs between the ${base_tag} run and --shards ${n} "
            "for ${PROTOCOL} (${FORMAT}); the sharded merge's "
            "byte-identical guarantee is broken")
    endif()
endforeach()

if(DEFINED FAULT)
    message(STATUS
        "${PROTOCOL} (${FORMAT}) under ${FAULT}: shards ${SHARDS} agree "
        "byte-for-byte at exit ${rc_${base_tag}}")
else()
    message(STATUS
        "${PROTOCOL} (${FORMAT}) ${SAME_ARGS}: plain vs shards ${SHARDS} "
        "agree byte-for-byte")
endif()
