// Runtime entry point: spawn workers and run a user closure on each.
//
// A run is W = workers * processes workers total. With processes == 1
// (the default) everything matches the original thread runtime exactly:
// no mesh, no serialization, in-memory channels only. With processes > 1
// each process runs `workers` threads carrying global worker indices
// [process_index * workers, ...), connected to its peers by the TCP mesh
// in src/net/: bundles for non-local workers serialize and ship, and
// every worker step's consolidated progress batch is broadcast so each
// process's tracker replica converges on the global counts.
#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "net/mesh.hpp"
#include "timely/worker.hpp"

namespace timely {

struct Config {
  Config() = default;
  /// `Config{w}` keeps working as it did when workers was the only field.
  explicit Config(uint32_t w) : workers(w) {}

  /// Number of worker threads **per process**. The paper runs 4 workers
  /// per process.
  uint32_t workers = 4;
  /// Number of processes; 1 = the classic single-process thread runtime.
  uint32_t processes = 1;
  /// This process's index in [0, processes).
  uint32_t process_index = 0;
  /// One "host:port" per process. Empty = loopback on consecutive ports
  /// starting at base_port (process i listens on base_port + i).
  std::vector<std::string> addresses;
  uint16_t base_port = 40123;
  /// Pre-bound listening socket for this process (the self-forking
  /// launcher binds kernel-assigned ports before forking); -1 = the mesh
  /// binds its own from `addresses`.
  int listen_fd = -1;
  /// Mesh keepalive: idle-link heartbeat cadence, and the silence
  /// deadline after which a peer is declared down (PeerDownError).
  uint64_t heartbeat_ms = 500;
  uint64_t peer_deadline_ms = 10'000;
  /// Deterministic transport-fault schedule (tests and fault drills;
  /// disabled by default). See src/fault/fault.hpp.
  megaphone::fault::FaultSpec fault;
};

/// Runs `fn(worker)` on `config.workers` threads. After the closure
/// returns, each worker keeps stepping until every dataflow completes
/// (inputs closed and all pointstamps drained), then the call returns.
///
/// Exceptions thrown by any worker closure are rethrown on the caller
/// after all threads join (and, in a multi-process run, after the mesh is
/// torn down).
template <typename Fn>
void Execute(const Config& config, Fn fn) {
  MEGA_CHECK_GE(config.workers, 1u);

  // Bring up the mesh first (multi-process runs only): worker threads and
  // the shared runtime state are created against a fully connected mesh.
  std::unique_ptr<megaphone::net::NetMesh> mesh;
  uint32_t local_begin = 0;
  if (config.processes > 1) {
    MEGA_CHECK_LT(config.process_index, config.processes);
    megaphone::net::MeshOptions mopts;
    mopts.processes = config.processes;
    mopts.process_index = config.process_index;
    mopts.workers_per_process = config.workers;
    mopts.listen_fd = config.listen_fd;
    mopts.heartbeat_ms = config.heartbeat_ms;
    mopts.peer_deadline_ms = config.peer_deadline_ms;
    mopts.fault = config.fault;
    if (config.addresses.empty()) {
      for (uint32_t p = 0; p < config.processes; ++p) {
        mopts.addresses.push_back(
            "127.0.0.1:" + std::to_string(config.base_port + p));
      }
    } else {
      mopts.addresses = config.addresses;
    }
    mesh = std::make_unique<megaphone::net::NetMesh>(std::move(mopts));
    local_begin = config.process_index * config.workers;
  }

  auto shared = std::make_shared<RuntimeShared>(
      config.workers * std::max(config.processes, 1u), local_begin,
      config.workers, mesh.get());

  std::vector<std::thread> threads;
  std::vector<std::exception_ptr> errors(config.workers);
  threads.reserve(config.workers);
  for (uint32_t i = 0; i < config.workers; ++i) {
    threads.emplace_back([i, local_begin, shared, &fn, &errors] {
      Worker worker(local_begin + i, shared);
      try {
        fn(worker);
        worker.StepUntilComplete();
      } catch (...) {
        errors[i] = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  if (mesh) {
    bool failed = false;
    for (auto& e : errors) failed |= (e != nullptr);
    // Clean teardown waits for every peer's goodbye (all frames
    // delivered); on failure, force so a wedged peer cannot hang the
    // error report.
    mesh->Shutdown(/*force=*/failed);
  }
  for (auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  // A peer that died after the workers finished but before the goodbye
  // exchange still aborts the run: "completed" against a half-dead mesh
  // is not a clean result.
  if (mesh && mesh->PeerFailed()) {
    throw PeerDownError(mesh->FailureReason());
  }
}

}  // namespace timely
