#ifndef DHQP_OPTIMIZER_COST_H_
#define DHQP_OPTIMIZER_COST_H_

#include "src/optimizer/physical.h"

namespace dhqp {

/// Cost-model constants, in abstract "row units". The remote constants
/// implement the paper's model (§4.1.3): a remote operator is costed by its
/// output cardinality, with per-row network cost dominating local per-row
/// work, so minimizing cost minimizes network traffic. Remote execution work
/// is deliberately *not* modeled — "in heterogeneous, autonomous
/// environments, it is sometimes impossible to reason about the detailed
/// implementation of the remote operator".
struct CostParams {
  double seq_row = 1.0;            ///< Sequential scan, per row.
  double index_row = 1.5;          ///< Index traversal, per qualifying row.
  double index_seek = 8.0;         ///< Per seek (log factor flattened).
  double filter_row = 0.2;
  double project_row = 0.1;
  double hash_build_row = 2.0;
  double hash_probe_row = 1.2;
  double nl_rescan = 1.0;          ///< Inner rescan multiplier baseline.
  double sort_row_log = 0.3;       ///< n * log2(n) coefficient.
  double agg_row = 1.5;
  double spool_write_row = 0.6;
  double spool_read_row = 0.2;

  double remote_request = 1000.0;  ///< Per remote command / open (latency).
  double remote_row = 8.0;         ///< Per row shipped over the network.
  double remote_fetch = 60.0;      ///< Per bookmark fetch round trip.

  /// Exchange (intra-query parallelism): per-stream thread startup/teardown
  /// plus per-row queue transfer. These are what keep small queries serial —
  /// a parallel plan only wins when the per-row work it divides across
  /// workers outweighs startup + data movement (break-even lands around a
  /// few thousand rows for a scan-filter pipeline).
  double exchange_startup = 500.0;  ///< Per producer + per consumer stream.
  double exchange_row = 0.3;        ///< Per row moved through the exchange.
};

/// Local (non-cumulative) cost of `op`, given children already annotated
/// with estimated_rows/estimated_cost. `op.estimated_rows` must be set.
double LocalCost(const PhysicalOp& op, const CostParams& params);

/// The part of LocalCost(op) that every one of op's dop instances pays in
/// full rather than a 1/dop share of: the hash table a parallel hash join
/// builds from a serial (replicated) build child. Zero for everything else.
double ReplicatedCost(const PhysicalOp& op, const CostParams& params);

}  // namespace dhqp

#endif  // DHQP_OPTIMIZER_COST_H_
