#include "src/qos/io.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "src/common/error.hpp"

namespace mrsky::qos {
namespace {

ServiceCatalog sample_catalog() {
  ServiceCatalog catalog(data::qws_schema(3));  // ResponseTime, Availability, Throughput
  catalog.add(WebService{1u, "alpha", {200.0, 99.0, 12.0}});
  catalog.add(WebService{2u, "beta", {450.0, 80.0, 30.5}});
  return catalog;
}

TEST(CatalogCsv, RoundTrip) {
  const ServiceCatalog original = sample_catalog();
  std::stringstream buffer;
  write_catalog_csv(buffer, original);
  const ServiceCatalog loaded = read_catalog_csv(buffer, data::qws_schema(3));
  ASSERT_EQ(loaded.size(), original.size());
  for (std::size_t i = 0; i < loaded.size(); ++i) {
    EXPECT_EQ(loaded.services()[i].id, original.services()[i].id);
    EXPECT_EQ(loaded.services()[i].name, original.services()[i].name);
    EXPECT_EQ(loaded.services()[i].qos, original.services()[i].qos);
  }
}

TEST(CatalogCsv, HeaderNamesAttributes) {
  std::stringstream buffer;
  write_catalog_csv(buffer, sample_catalog());
  std::string header;
  std::getline(buffer, header);
  EXPECT_EQ(header, "id,name,ResponseTime,Availability,Throughput");
}

TEST(CatalogCsv, ColumnsMatchedByNameNotPosition) {
  // Attribute columns permuted relative to the schema order.
  std::stringstream buffer(
      "id,name,Throughput,ResponseTime,Availability\n"
      "7,gamma,5.5,300,90\n");
  const ServiceCatalog catalog = read_catalog_csv(buffer, data::qws_schema(3));
  ASSERT_EQ(catalog.size(), 1u);
  const auto& s = catalog.services()[0];
  EXPECT_DOUBLE_EQ(s.qos[0], 300.0);  // ResponseTime
  EXPECT_DOUBLE_EQ(s.qos[1], 90.0);   // Availability
  EXPECT_DOUBLE_EQ(s.qos[2], 5.5);    // Throughput
}

TEST(CatalogCsv, UnknownColumnThrows) {
  std::stringstream buffer("id,name,Bogus\n1,x,1\n");
  EXPECT_THROW((void)read_catalog_csv(buffer, data::qws_schema(1)), mrsky::InvalidArgument);
}

TEST(CatalogCsv, MissingColumnThrows) {
  std::stringstream buffer("id,name,ResponseTime\n1,x,100\n");
  EXPECT_THROW((void)read_catalog_csv(buffer, data::qws_schema(2)), mrsky::InvalidArgument);
}

TEST(CatalogCsv, DuplicateColumnThrows) {
  std::stringstream buffer("id,name,ResponseTime,ResponseTime\n1,x,100,200\n");
  EXPECT_THROW((void)read_catalog_csv(buffer, data::qws_schema(1)), mrsky::InvalidArgument);
}

TEST(CatalogCsv, MissingIdNameColumnsThrow) {
  std::stringstream buffer("name,id,ResponseTime\nx,1,100\n");
  EXPECT_THROW((void)read_catalog_csv(buffer, data::qws_schema(1)), mrsky::InvalidArgument);
}

TEST(CatalogCsv, RaggedRowThrows) {
  std::stringstream buffer("id,name,ResponseTime\n1,x\n");
  EXPECT_THROW((void)read_catalog_csv(buffer, data::qws_schema(1)), mrsky::InvalidArgument);
}

TEST(CatalogCsv, GarbageValueThrows) {
  std::stringstream buffer("id,name,ResponseTime\n1,x,fast\n");
  EXPECT_THROW((void)read_catalog_csv(buffer, data::qws_schema(1)), mrsky::InvalidArgument);
}

TEST(CatalogCsv, OutOfSchemaRangeThrows) {
  // ResponseTime range is [37, 4989]; 5 is below minimum.
  std::stringstream buffer("id,name,ResponseTime\n1,x,5\n");
  EXPECT_THROW((void)read_catalog_csv(buffer, data::qws_schema(1)), mrsky::InvalidArgument);
}

// Catalog ids are PointIds: `-1`, `2.5`, `nan` or `1e20` used to go through
// an undefined double-to-integer cast.
TEST(CatalogCsv, IdOutsidePointIdRangeThrows) {
  for (const char* id : {"-1", "2.5", "nan", "inf", "1e20", "4294967296"}) {
    std::stringstream buffer(std::string("id,name,ResponseTime\n") + id + ",alpha,200\n");
    EXPECT_THROW((void)read_catalog_csv(buffer, data::qws_schema(1)), mrsky::InvalidArgument)
        << id;
  }
  std::stringstream buffer("id,name,ResponseTime\n4294967295,alpha,200\n");
  EXPECT_EQ(read_catalog_csv(buffer, data::qws_schema(1)).services()[0].id, 4294967295u);
}

TEST(CatalogCsv, EmptyFileThrows) {
  std::stringstream buffer("");
  EXPECT_THROW((void)read_catalog_csv(buffer, data::qws_schema(1)), mrsky::InvalidArgument);
}

TEST(CatalogCsv, FileRoundTrip) {
  const std::string path = testing::TempDir() + "/mrsky_catalog.csv";
  write_catalog_csv_file(path, sample_catalog());
  const ServiceCatalog loaded = read_catalog_csv_file(path, data::qws_schema(3));
  EXPECT_EQ(loaded.size(), 2u);
}

TEST(CatalogCsv, MissingFileThrows) {
  EXPECT_THROW((void)read_catalog_csv_file("/no/such/file.csv", data::qws_schema(1)),
               mrsky::RuntimeError);
}

TEST(CatalogCsv, SkipsBlankLines) {
  std::stringstream buffer("id,name,ResponseTime\n\n1,x,100\n\n2,y,200\n");
  EXPECT_EQ(read_catalog_csv(buffer, data::qws_schema(1)).size(), 2u);
}

}  // namespace
}  // namespace mrsky::qos
