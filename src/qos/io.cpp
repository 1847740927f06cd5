#include "src/qos/io.hpp"

#include <charconv>
#include <fstream>
#include <iomanip>
#include <optional>
#include <sstream>
#include <vector>

#include "src/common/error.hpp"

namespace mrsky::qos {

namespace {

std::vector<std::string> split_commas(const std::string& line) {
  std::vector<std::string> cells;
  std::size_t start = 0;
  while (start <= line.size()) {
    std::size_t comma = line.find(',', start);
    if (comma == std::string::npos) comma = line.size();
    cells.push_back(line.substr(start, comma - start));
    start = comma + 1;
  }
  return cells;
}

double parse_double_or_throw(const std::string& s, const std::string& what) {
  double out = 0.0;
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  MRSKY_REQUIRE(ec == std::errc() && ptr == s.data() + s.size(), "bad number in " + what + ": " + s);
  return out;
}

}  // namespace

void write_catalog_csv(std::ostream& os, const ServiceCatalog& catalog) {
  os << "id,name";
  for (const auto& attr : catalog.schema()) os << "," << attr.name;
  os << "\n" << std::setprecision(17);
  for (const auto& service : catalog.services()) {
    os << service.id << "," << service.name;
    for (double v : service.qos) os << "," << v;
    os << "\n";
  }
  if (!os) MRSKY_FAIL("catalog CSV write failed");
}

void write_catalog_csv_file(const std::string& path, const ServiceCatalog& catalog) {
  std::ofstream file(path);
  if (!file) MRSKY_FAIL("cannot open for writing: " + path);
  write_catalog_csv(file, catalog);
}

ServiceCatalog read_catalog_csv(std::istream& is, std::vector<data::QwsAttribute> schema) {
  std::string line;
  MRSKY_REQUIRE(static_cast<bool>(std::getline(is, line)), "catalog CSV is empty");
  if (!line.empty() && line.back() == '\r') line.pop_back();
  const auto header = split_commas(line);
  MRSKY_REQUIRE(header.size() >= 3, "catalog CSV needs id, name and attribute columns");
  MRSKY_REQUIRE(header[0] == "id" && header[1] == "name",
                "catalog CSV must start with id,name columns");

  // Map file columns onto schema attributes by name.
  std::vector<std::size_t> schema_index_of_column(header.size() - 2);
  std::vector<bool> seen(schema.size(), false);
  for (std::size_t c = 2; c < header.size(); ++c) {
    bool found = false;
    for (std::size_t a = 0; a < schema.size(); ++a) {
      if (schema[a].name == header[c]) {
        MRSKY_REQUIRE(!seen[a], "duplicate attribute column: " + header[c]);
        schema_index_of_column[c - 2] = a;
        seen[a] = true;
        found = true;
        break;
      }
    }
    MRSKY_REQUIRE(found, "unknown attribute column: " + header[c]);
  }
  for (std::size_t a = 0; a < schema.size(); ++a) {
    MRSKY_REQUIRE(seen[a], "missing attribute column: " + schema[a].name);
  }

  ServiceCatalog catalog(std::move(schema));
  std::size_t row = 0;
  while (std::getline(is, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    ++row;
    const auto cells = split_commas(line);
    MRSKY_REQUIRE(cells.size() == header.size(),
                  "ragged catalog row " + std::to_string(row));
    WebService service;
    const std::optional<data::PointId> id =
        data::point_id_from(parse_double_or_throw(cells[0], "id of row " + std::to_string(row)));
    MRSKY_REQUIRE(id.has_value(), "bad id in row " + std::to_string(row) + ": " + cells[0] +
                                      " (ids are whole numbers in [0, 4294967295])");
    service.id = *id;
    service.name = cells[1];
    service.qos.resize(catalog.schema().size());
    for (std::size_t c = 2; c < cells.size(); ++c) {
      service.qos[schema_index_of_column[c - 2]] =
          parse_double_or_throw(cells[c], "row " + std::to_string(row));
    }
    catalog.add(std::move(service));
  }
  return catalog;
}

ServiceCatalog read_catalog_csv_file(const std::string& path,
                                     std::vector<data::QwsAttribute> schema) {
  std::ifstream file(path);
  if (!file) MRSKY_FAIL("cannot open for reading: " + path);
  return read_catalog_csv(file, std::move(schema));
}

}  // namespace mrsky::qos
