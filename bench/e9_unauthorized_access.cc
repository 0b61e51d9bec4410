// Experiment E9: unauthorized access is refused at every layer, and
// revocation takes effect immediately.
//
// Paper basis (Section 2): "We do not want, for example, any accelerator of
// the KV-store application to be able to communicate with any accelerator in
// the encoding application. This could occur due to misbehavior from a bug
// or maliciously." And Section 4.6's partitioned capabilities with
// monitor-side enforcement.
//
// Part A: a snooper's full attack surface, with where each attempt died.
// Part B: capability revocation — messages in the same cycle window before
//         and after Revoke(), proving the generation check is immediate.
#include <cstdio>

#include "bench/bench_util.h"
#include "src/accel/echo.h"
#include "src/accel/faulty.h"
#include "src/accel/probe.h"
#include "src/stats/table.h"

using namespace apiary;

int main(int argc, char** argv) {
  std::printf("E9: unauthorized access and revocation (Sections 2, 4.6)\n");

  bool audit_clean = true;
  BenchJson json("e9_unauthorized_access");
  json.Param("snoop_cycles", static_cast<uint64_t>(200000));

  // ---- Part A: the snooper's haul. ----
  {
    BenchBoard bb;
    bb.sim.SetAuditEnabled(true);
    ApiaryOs& os = bb.os;
    AppId victim_app = os.CreateApp("victim");
    ServiceId vsvc = 0;
    os.Deploy(victim_app, std::make_unique<EchoAccelerator>(0), &vsvc);
    AppId evil_app = os.CreateApp("evil");
    auto* snoop = new SnooperAccelerator(os.num_tiles(), 25);
    const TileId st = os.Deploy(evil_app, std::unique_ptr<Accelerator>(snoop));
    (void)os.GrantSendToService(st, kMemoryService);  // Its one legitimate right.
    bb.sim.Run(200000);

    Table part_a("E9a: snooper outcome after 200k cycles");
    part_a.SetHeader({"metric", "count"});
    part_a.AddRow({"attempts (forged caps + forged grants)", Table::Int(snoop->attempts())});
    part_a.AddRow({"refused at the sender's monitor", Table::Int(snoop->denied_local())});
    part_a.AddRow({"refused at the service (scrubbed grant)",
                   Table::Int(snoop->denied_remote())});
    part_a.AddRow({"bytes of victim data obtained", Table::Int(snoop->leaked())});
    part_a.Print();

    json.BeginRow();
    json.Metric("part", "snooper");
    json.Metric("attempts", snoop->attempts());
    json.Metric("denied_local", snoop->denied_local());
    json.Metric("denied_remote", snoop->denied_remote());
    json.Metric("leaked_bytes", snoop->leaked());
    audit_clean &= AuditClean(bb.sim, "e9 snooper");
  }

  // ---- Part B: revocation latency. ----
  {
    BenchBoard bb(BenchBoardOptions{}, /*deploy_services=*/false);
    bb.sim.SetAuditEnabled(true);
    ApiaryOs& os = bb.os;
    AppId app = os.CreateApp("a");
    ServiceId svc = 0;
    os.Deploy(app, std::make_unique<EchoAccelerator>(0), &svc);
    auto* probe = new ProbeAccelerator();
    const TileId pt = os.Deploy(app, std::unique_ptr<Accelerator>(probe));
    const CapRef cap = os.GrantSendToService(pt, svc);
    bb.sim.Run(3);

    Table part_b("E9b: revocation is immediate (same-cycle send outcomes)");
    part_b.SetHeader({"action", "send status"});
    auto try_send = [&](const char* action, CapRef ref) {
      Message msg;
      msg.opcode = kOpEcho;
      const char* status = MsgStatusName(os.monitor(pt).Send(std::move(msg), ref).status);
      part_b.AddRow({action, status});
      json.BeginRow();
      json.Metric("part", "revocation");
      json.Metric("action", action);
      json.Metric("status", status);
    };
    try_send("send with live capability", cap);
    os.Revoke(pt, cap);
    try_send("send after Revoke() — same cycle", cap);
    // Slot reuse: a new grant occupies the same slot with a new generation;
    // the stale reference still fails.
    const CapRef fresh = os.GrantSendToService(pt, svc);
    try_send("send with STALE ref after slot reuse", cap);
    try_send("send with the fresh capability", fresh);
    part_b.Print();
    bb.sim.Run(100);  // Delivers the accepted sends under audit.
    audit_clean &= AuditClean(bb.sim, "e9 revocation");
  }

  const std::string json_path = JsonPathArg(argc, argv);
  if (!json_path.empty()) {
    json.WriteFile(json_path);
  }

  std::printf(
      "\nexpected shape: every snoop attempt dies at the first trusted component it\n"
      "meets (the local monitor for forged refs, the service for scrubbed grants);\n"
      "zero victim bytes leak. Revocation flips the capability generation, so the\n"
      "very next send — and any send with a stale ref after slot reuse — fails\n"
      "closed while a freshly granted capability works.\n");
  return audit_clean ? 0 : 1;
}
