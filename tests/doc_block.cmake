# read_fenced_block(<doc> <info> <var>): sets <var> to the body of the
# first block of Markdown file <doc> that opens with "```<info>", up to
# and including the newline before its closing fence. A missing or
# unclosed block fails the calling script.
function(read_fenced_block doc info var)
  file(READ "${doc}" text)
  set(open "```${info}\n")
  string(FIND "${text}" "${open}" begin)
  if(begin EQUAL -1)
    message(FATAL_ERROR "${doc} has no fenced ${info} block")
  endif()
  string(LENGTH "${open}" open_len)
  math(EXPR begin "${begin} + ${open_len}")
  string(SUBSTRING "${text}" ${begin} -1 rest)
  string(FIND "${rest}" "\n```" end)
  if(end EQUAL -1)
    message(FATAL_ERROR "${doc}: the ${info} block is not closed")
  endif()
  math(EXPR end "${end} + 1")  # keep the block's last newline
  string(SUBSTRING "${rest}" 0 ${end} block)
  set(${var} "${block}" PARENT_SCOPE)
endfunction()
