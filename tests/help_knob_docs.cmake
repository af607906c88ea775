# Knob-drift guard: every --flag and GBIS_* name that `gbis --help`
# lists (rendered from the knob tables) must appear in a table row of
# README.md or docs/SERVICE.md, so no knob ships undocumented.
execute_process(COMMAND ${GBIS_CLI} --help
  RESULT_VARIABLE code OUTPUT_VARIABLE help ERROR_VARIABLE err)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "gbis --help exited ${code}: ${err}")
endif()
set(tables "")
foreach(doc README.md docs/SERVICE.md)
  file(STRINGS ${SOURCE_DIR}/${doc} rows REGEX "^\\|")
  string(APPEND tables "${rows}\n")
endforeach()
string(REGEX MATCHALL "--[a-z][a-z-]*|GBIS_[A-Z_]+" names "${help}")
list(REMOVE_DUPLICATES names)
set(missing "")
foreach(name ${names})
  if(NOT tables MATCHES "${name}[^a-zA-Z_-]")
    list(APPEND missing ${name})
  endif()
endforeach()
if(missing)
  message(FATAL_ERROR
    "knobs listed by gbis --help but in no README.md / docs/SERVICE.md "
    "table row: ${missing}")
endif()
