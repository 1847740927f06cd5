// Web-service selection — the paper's motivating scenario (§I).
//
// A registry (UDDI) holds thousands of competing services measured on QoS
// attributes. A user wants the Pareto-optimal ("skyline") providers, and the
// registry is dynamic: new services keep arriving and must be folded into
// the skyline without recomputing from scratch (paper §II).
//
//   ./build/examples/web_service_selection [--services 20000] [--dim 5]
#include <iomanip>
#include <iostream>

#include "src/common/cli.hpp"
#include "src/qos/selector.hpp"

int main(int argc, char** argv) {
  using namespace mrsky;
  const common::CliArgs args(argc, argv);
  const auto n = static_cast<std::size_t>(args.get_int("services", 20000));
  const auto dim = static_cast<std::size_t>(args.get_int("dim", 5));

  // A synthetic registry following the QWS attribute schema.
  qos::ServiceCatalog catalog = qos::ServiceCatalog::synthetic(n, dim, /*seed=*/7);
  const auto schema = catalog.schema();

  core::MRSkylineConfig config;
  config.scheme = part::Scheme::kAngular;
  config.servers = 8;
  qos::SkylineServiceSelector selector(std::move(catalog), config);

  const auto& skyline = selector.skyline();
  std::cout << "registry: " << n << " services x " << dim << " QoS attributes\n"
            << "skyline:  " << skyline.size() << " Pareto-optimal services\n\n";

  std::cout << "sample skyline services (natural units):\n";
  std::cout << "  " << std::left << std::setw(16) << "service";
  for (const auto& attr : schema) std::cout << std::setw(16) << attr.name;
  std::cout << "\n";
  for (std::size_t i = 0; i < skyline.size() && i < 5; ++i) {
    std::cout << "  " << std::setw(16) << skyline[i].name;
    for (double v : skyline[i].qos) std::cout << std::setw(16) << v;
    std::cout << "\n";
  }

  // Dynamic registration: a clearly excellent service and a clearly poor one.
  std::vector<double> excellent;
  std::vector<double> poor;
  for (const auto& attr : schema) {
    excellent.push_back(attr.higher_is_better ? attr.max : attr.min);
    poor.push_back(attr.higher_is_better ? attr.min : attr.max);
  }
  std::cout << "\nregistering 'best-in-class' (optimal in every attribute)... ";
  std::cout << (selector.add_service("best-in-class", excellent) ? "joined the skyline"
                                                                 : "rejected")
            << "\n";
  std::cout << "registering 'worst-in-class' (worst in every attribute)...  ";
  std::cout << (selector.add_service("worst-in-class", poor) ? "joined the skyline" : "rejected")
            << "\n";

  // The first registration loads every service into the maintained
  // structure; each registration after that pays only its own update.
  std::cout << "\nmaintenance since the full run: " << selector.load_dominance_tests()
            << " dominance tests to load the registry, then "
            << selector.incremental_dominance_tests() << " for the two registrations\n"
            << "(the full MapReduce run needed "
            << selector.last_run().partition_job.total_work_units() +
                   selector.last_run().merge_job().total_work_units()
            << ")\n";
  return 0;
}
