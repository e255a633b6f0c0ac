// Small string helpers shared by the netlist/STG parsers and report writers.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace xatpg {

/// Split on any run of whitespace; no empty tokens are produced.
std::vector<std::string> split_ws(std::string_view text);

/// Split on a single delimiter character; empty fields are kept.
std::vector<std::string> split(std::string_view text, char delim);

/// Strip leading/trailing whitespace.
std::string_view trim(std::string_view text);

/// True if `text` starts with `prefix`.
bool starts_with(std::string_view text, std::string_view prefix);

/// Render a fixed-width table cell, left- or right-aligned.
std::string pad_left(const std::string& s, std::size_t width);
std::string pad_right(const std::string& s, std::size_t width);

/// `prefix` followed by the decimal `index` ("r" and 3 give "r3").  Built by
/// appending: the prepend in `"r" + std::to_string(i)` trips a false gcc 12
/// -Wrestrict warning at -O3.
std::string indexed_name(std::string_view prefix, std::size_t index);

}  // namespace xatpg
