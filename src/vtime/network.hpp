#pragma once
// Shared contention state for one simulated machine: per-node NIC resources
// (separate ingress and egress, i.e. full-duplex links into the switch) and
// per-domain memory-system resources.

#include <memory>
#include <vector>

#include "machine/machine.hpp"
#include "vtime/resource.hpp"

namespace srumma {

class NetworkState {
 public:
  explicit NetworkState(const MachineModel& machine);

  /// Egress NIC resource of a node (data leaving the node).
  [[nodiscard]] Resource& nic_out(int node);
  /// Ingress NIC resource of a node (data arriving at the node).
  [[nodiscard]] Resource& nic_in(int node);
  /// Aggregate memory-system resource of a shared-memory domain.
  [[nodiscard]] Resource& domain_mem(int domain);

  void reset();

  /// Coalesce dead reservations (end <= watermark) on every resource; see
  /// Resource::advance_frontier for the soundness contract.  Called by
  /// Team's barrier with the release time, where all ranks are quiescent.
  void advance_frontier(double watermark);

 private:
  // unique_ptr so Resource (which holds a lock) never moves.
  std::vector<std::unique_ptr<Resource>> nic_out_;
  std::vector<std::unique_ptr<Resource>> nic_in_;
  std::vector<std::unique_ptr<Resource>> domain_mem_;
};

}  // namespace srumma
