#include "src/optimizer/cost.h"

#include <algorithm>
#include <cmath>

namespace dhqp {

namespace {

double ChildRows(const PhysicalOp& op, size_t i) {
  return std::max(op.children[i]->estimated_rows, 0.0);
}

// Per-row evaluation weight of a predicate. Simple comparisons are cheap;
// LIKE scans the string; CONTAINS tokenizes + stems + matches the whole
// text, which is what makes a full-text index plan attractive (§2.3).
double PredicateWeight(const ScalarExprPtr& pred) {
  if (pred == nullptr) return 1.0;
  double w = 0;
  if (pred->kind == ScalarKind::kFunc && pred->op == "CONTAINS") {
    w += 100.0;
  } else if (pred->kind == ScalarKind::kLike) {
    w += 5.0;
  }
  for (const ScalarExprPtr& arg : pred->args) w += PredicateWeight(arg);
  return std::max(w, 1.0);
}

}  // namespace

double LocalCost(const PhysicalOp& op, const CostParams& p) {
  double out = std::max(op.estimated_rows, 0.0);
  switch (op.kind) {
    case PhysicalOpKind::kTableScan:
      return std::max(op.table.metadata.cardinality, 1.0) * p.seq_row;
    case PhysicalOpKind::kIndexRange:
      return p.index_seek + out * p.index_row;
    case PhysicalOpKind::kFilter:
      return ChildRows(op, 0) * p.filter_row * PredicateWeight(op.predicate);
    case PhysicalOpKind::kStartupFilter:
      // Evaluated once; may skip the whole child, but costing assumes it
      // runs (conservative).
      return 1.0;
    case PhysicalOpKind::kProject:
      return ChildRows(op, 0) * p.project_row *
             std::max<size_t>(op.exprs.size(), 1);
    case PhysicalOpKind::kHashJoin:
      return ChildRows(op, 1) * p.hash_build_row +
             ChildRows(op, 0) * p.hash_probe_row + out * 0.1;
    case PhysicalOpKind::kMergeJoin:
      return (ChildRows(op, 0) + ChildRows(op, 1)) * 1.0 + out * 0.1;
    case PhysicalOpKind::kNestedLoopsJoin: {
      // Outer rows drive rescans of the inner subtree. A rescannable inner
      // (spool, materialized scan) re-reads cheaply; otherwise the inner's
      // full cost recurs per outer row — which is what makes un-spooled
      // remote inners catastrophically expensive (§4.1.4).
      double outer = ChildRows(op, 0);
      const PhysicalOp& inner = *op.children[1];
      double inner_rescan_cost;
      if (inner.kind == PhysicalOpKind::kSpool) {
        inner_rescan_cost = inner.estimated_rows * p.spool_read_row;
      } else if (inner.kind == PhysicalOpKind::kConstTable ||
                 inner.kind == PhysicalOpKind::kEmptyTable) {
        inner_rescan_cost = inner.estimated_rows * p.spool_read_row;
      } else {
        inner_rescan_cost = inner.estimated_cost;
      }
      return std::max(outer - 1.0, 0.0) * inner_rescan_cost * p.nl_rescan +
             outer * p.filter_row + out * 0.1;
    }
    case PhysicalOpKind::kHashAggregate:
      return ChildRows(op, 0) * p.agg_row;
    case PhysicalOpKind::kStreamAggregate:
      return ChildRows(op, 0) * p.agg_row * 0.5;
    case PhysicalOpKind::kSort: {
      double n = std::max(ChildRows(op, 0), 2.0);
      return n * std::log2(n) * p.sort_row_log;
    }
    case PhysicalOpKind::kTop:
      return out * 0.1;
    case PhysicalOpKind::kConcat:
      return out * 0.05;
    case PhysicalOpKind::kConstTable:
    case PhysicalOpKind::kEmptyTable:
      return 0.5;
    case PhysicalOpKind::kSpool:
      return ChildRows(op, 0) * p.spool_write_row;
    case PhysicalOpKind::kRemoteQuery:
      // The paper's model: a remote request plus its output shipped back.
      return p.remote_request + out * p.remote_row;
    case PhysicalOpKind::kRemoteScan:
      return p.remote_request +
             std::max(op.table.metadata.cardinality, 1.0) * p.remote_row;
    case PhysicalOpKind::kRemoteRange:
      return p.remote_request + out * p.remote_row;
    case PhysicalOpKind::kRemoteFetch:
      // One round trip per bookmark.
      return p.remote_request + out * p.remote_fetch;
    case PhysicalOpKind::kFullTextLookup:
      return p.remote_request * 0.2 + out * 2.0;
    case PhysicalOpKind::kExchange: {
      // Startup per stream on both sides plus every row crossing a queue.
      // Not divided by dop (see Optimizer::CostNode): the transfer itself is
      // the serialization point.
      double producers =
          op.children.empty() ? 1.0 : std::max(op.children[0]->dop, 1);
      double consumers = std::max(op.dop, 1);
      return p.exchange_startup * (producers + consumers) +
             ChildRows(op, 0) * p.exchange_row;
    }
  }
  return out;
}

double ReplicatedCost(const PhysicalOp& op, const CostParams& p) {
  if (op.kind != PhysicalOpKind::kHashJoin || op.dop <= 1 ||
      op.children[1]->dop > 1) {
    return 0.0;
  }
  return ChildRows(op, 1) * p.hash_build_row;
}

}  // namespace dhqp
