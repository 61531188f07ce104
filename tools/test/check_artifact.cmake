# Parse check for a JSON artifact the test suite writes:
#
#   cmake -DFILE=<path> -DSCHEMA=<schema>/<version> [-DAT=<member>,...]
#         -P check_artifact.cmake
#
# Fails unless FILE parses as JSON and carries provenance.schema == SCHEMA,
# at its root or, with AT, in each named top-level member (documents that
# bundle several stamped reports).
if(NOT EXISTS "${FILE}")
  message(FATAL_ERROR "${FILE}: no such artifact")
endif()
file(READ "${FILE}" doc)
if(NOT AT)
  set(AT ".")
endif()
string(REPLACE "," ";" AT "${AT}")
foreach(member IN LISTS AT)
  if(member STREQUAL ".")
    set(member "")
  endif()
  string(JSON got ERROR_VARIABLE err GET "${doc}" ${member} provenance schema)
  if(err)
    message(FATAL_ERROR "${FILE}: ${err}")
  endif()
  if(NOT got STREQUAL SCHEMA)
    message(FATAL_ERROR
            "${FILE}: provenance.schema is '${got}', expected '${SCHEMA}'")
  endif()
endforeach()
message(STATUS "${FILE}: valid JSON, provenance.schema ${SCHEMA}")
