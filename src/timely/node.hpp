// Dataflow node interfaces.
#pragma once

#include <cstdint>

namespace timely {

template <typename T>
class DataflowInstance;

/// A worker-local operator instance. Workers repeatedly call Schedule on
/// every node of a dataflow; each node drains its inputs, runs user
/// logic, and stages its outputs and progress changes into the step.
/// After every node has been scheduled the dataflow applies the step's
/// consolidated progress batch once, then calls CommitStep so staged
/// bundles become visible (the safety order: counts first).
template <typename T>
class NodeBase {
 public:
  virtual ~NodeBase() = default;
  /// Returns true if the node did any work (used for idle backoff).
  virtual bool Schedule(DataflowInstance<T>& df) = 0;
  /// Publishes bundles staged by Schedule; runs after the step's progress
  /// batch has been applied. Returns true if anything moved.
  virtual bool CommitStep() { return false; }
};

}  // namespace timely
