# Daemon-vs-batch differential guarantee: a `check` response from a
# long-lived mccheckd must carry the exact bytes a cold batch mccheck
# run would put on stdout for the same inputs — on the first request,
# on warm re-checks served from resident state, and after an on-disk
# edit that invalidates a single unit's fingerprints.
#
# The assertions themselves live in tools/daemon_differential.py (it
# needs one daemon process spanning several requests, which a sequence
# of execute_process calls cannot model); this script validates the
# parameters, scrubs the workdir, runs the harness, and surfaces its
# diagnostics through the usual FATAL_ERROR channel.
#
# Usage:
#   cmake -DMCCHECK=<path> -DMCCHECKD=<path> -DHARNESS=<path to
#         daemon_differential.py> -DMODE=<protocol|files|edit>
#         -DPROTOCOL=<name> -DFORMAT=<text|json|sarif>
#         -DWORKDIR=<scratch dir> [-DPYTHON=<python3>]
#         -P compare_daemon.cmake

foreach(var MCCHECK MCCHECKD HARNESS MODE PROTOCOL FORMAT WORKDIR)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "compare_daemon.cmake: -D${var}=... is required")
    endif()
endforeach()

if(NOT DEFINED PYTHON)
    find_program(PYTHON python3)
    if(NOT PYTHON)
        message(FATAL_ERROR "compare_daemon.cmake: python3 not found; "
                            "pass -DPYTHON=<interpreter>")
    endif()
endif()

set(metal_args)
if(DEFINED METAL)
    set(metal_args --metal "${METAL}")
endif()

file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")

execute_process(
    COMMAND "${PYTHON}" "${HARNESS}"
            --mccheck "${MCCHECK}" --mccheckd "${MCCHECKD}"
            --workdir "${WORKDIR}" --mode "${MODE}"
            --protocol "${PROTOCOL}" --format "${FORMAT}" ${metal_args}
    OUTPUT_VARIABLE harness_out
    ERROR_VARIABLE harness_err
    RESULT_VARIABLE harness_rc)

if(NOT harness_rc EQUAL 0)
    message(FATAL_ERROR
        "compare_daemon.cmake[${MODE} ${PROTOCOL} ${FORMAT}]: daemon and "
        "batch disagree (rc ${harness_rc})\nstdout:\n${harness_out}\n"
        "stderr:\n${harness_err}")
endif()

message(STATUS "${harness_out}")
