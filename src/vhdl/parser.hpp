#pragma once
// Recursive-descent parser for the synthesizable VHDL-93 subset
// (the paper's "VHDL Parser" flow stage: syntax checking + AST).

#include <string>

#include "vhdl/ast.hpp"

namespace amdrel::vhdl {

/// Parses a full design file; throws ParseError with file/line context on
/// anything outside the supported subset.
DesignFile parse_vhdl(const std::string& source,
                      const std::string& filename = "<vhdl>");

}  // namespace amdrel::vhdl
