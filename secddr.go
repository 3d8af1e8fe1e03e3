// Package secddr is a from-scratch Go reproduction of "SecDDR: Enabling
// Low-Cost Secure Memories by Protecting the DDR Interface" (DSN 2023).
//
// SecDDR provides replay-attack protection for direct-attached DDRx
// memories without integrity trees: per-line MACs ride the ECC pins, are
// encrypted on the bus with one-time pads derived from synchronized
// per-rank transaction counters (E-MACs), and writes carry an encrypted
// extended write CRC that lets the DRAM device reject misdirected writes.
//
// The module contains four independently usable layers, re-exported here:
//
//   - The functional protocol (NewSystem): a bit-accurate SecDDR memory
//     with real AES-CMAC MACs, counter-derived pads, eWCRC, SECDED, an
//     attacker-accessible channel, and the attestation handshake.
//   - The performance model (RunSim): a cycle-level DDR4-3200 simulator
//     (Ramulator-style timing, FR-FCFS controller, caches, OoO cores) with
//     every protection mode the paper evaluates.
//   - The experiment harness: a generic campaign runner (RunCampaign) that
//     executes workload x configuration grids on a bounded worker pool with
//     digest-keyed result caching behind a pluggable Store, plus the
//     declarative figure definitions (Fig6 .. Fig12, Table2) that regenerate
//     each table and figure of the paper's evaluation on top of it.
//   - The campaign service (OpenResultStore, SweepClient, NewSweepServer,
//     cmd/secddr-serve, cmd/secddr-worker): a concurrent append-only result
//     store many processes share, and an HTTP daemon that runs submitted
//     sweeps once — identical concurrent requests join one in-flight
//     execution — and streams results to every client. Execution scales
//     out: a FleetWorker leases jobs from the daemon's queue over HTTP,
//     crashed workers' leases are reclaimed and re-run, and results stay
//     byte-identical to a local run.
//
// See examples/ for runnable entry points, README.md for the build and
// figure-regeneration quickstart, and DESIGN.md for the system inventory.
package secddr

import (
	"context"

	"secddr/internal/analysis"
	"secddr/internal/config"
	"secddr/internal/core"
	"secddr/internal/experiments"
	"secddr/internal/harness"
	"secddr/internal/protocol"
	"secddr/internal/resultstore"
	"secddr/internal/scenario"
	"secddr/internal/service"
	"secddr/internal/sim"
	"secddr/internal/trace"
)

// --- Functional protocol --------------------------------------------------

// Protocol modes for the functional model.
const (
	// ProtocolMACOnly is the TDX-like baseline (no replay protection).
	ProtocolMACOnly = core.ModeMACOnly
	// ProtocolSecDDRNoEWCRC enables E-MACs only.
	ProtocolSecDDRNoEWCRC = core.ModeSecDDRNoEWCRC
	// ProtocolSecDDR is the full design: E-MACs plus encrypted eWCRC.
	ProtocolSecDDR = core.ModeSecDDR
)

// System is a runnable bit-accurate SecDDR memory system.
type System = protocol.System

// Geometry describes the functional model's DIMM organization.
type Geometry = protocol.Geometry

// Keys are the secrets shared by processor and ECC chip.
type Keys = core.Keys

// ErrIntegrityViolation is returned when a read fails MAC verification.
var ErrIntegrityViolation = core.ErrIntegrityViolation

// ErrEWCRCMismatch is returned when the device rejects a corrupted write.
var ErrEWCRCMismatch = core.ErrEWCRCMismatch

// NewSystem builds a functional SecDDR memory system.
func NewSystem(mode core.Mode, geom Geometry, keys Keys, initialCt uint64) (*System, error) {
	return protocol.NewSystem(mode, geom, keys, initialCt)
}

// DefaultGeometry returns a two-rank functional-model organization.
func DefaultGeometry() Geometry { return protocol.DefaultGeometry() }

// TestKeys returns fixed keys for demos; production uses attestation.
func TestKeys() Keys { return protocol.TestKeys() }

// --- Performance model ----------------------------------------------------

// Mode identifies a performance-model protection configuration.
type Mode = config.Mode

// The evaluated configurations (Section IV-B of the paper).
const (
	ModeIntegrityTree  = config.ModeIntegrityTree
	ModeSecDDRCTR      = config.ModeSecDDRCTR
	ModeEncryptOnlyCTR = config.ModeEncryptOnlyCTR
	ModeSecDDRXTS      = config.ModeSecDDRXTS
	ModeEncryptOnlyXTS = config.ModeEncryptOnlyXTS
	ModeInvisiMem      = config.ModeInvisiMem
	ModeUnprotected    = config.ModeUnprotected
)

// Config is a full simulation configuration.
type Config = config.Config

// Table1 returns the paper's Table I configuration for a mode.
func Table1(mode Mode) Config { return config.Table1(mode) }

// SimOptions configures one simulation run.
type SimOptions = sim.Options

// SimResult carries a run's metrics.
type SimResult = sim.Result

// SimFidelity selects a run's execution fidelity (SimOptions.Fidelity):
// the exact event-driven loop, or interval sampling that alternates short
// detailed windows with functional fast-forward and reports each metric
// as a mean with a 95% confidence interval (SimResult.Estimates).
type SimFidelity = sim.Fidelity

// SimEstimate is one sampled metric's mean ± 95% CI.
type SimEstimate = sim.Estimate

// FidelityExact and FidelitySampled are the SimFidelity modes.
const (
	FidelityExact   = sim.FidelityExact
	FidelitySampled = sim.FidelitySampled
)

// RunSim executes one performance simulation.
func RunSim(opt SimOptions) (SimResult, error) { return sim.Run(opt) }

// Workload is a synthetic benchmark profile.
type Workload = trace.Profile

// Workloads returns the 29 benchmark profiles of the paper's figures.
func Workloads() []Workload { return trace.Profiles() }

// WorkloadByName looks up one profile.
func WorkloadByName(name string) (Workload, bool) { return trace.ByName(name) }

// Scenario is a declarative multi-core workload: per-core heterogeneous
// profile assignment, phase schedules (instruction-count or Markov
// boundaries), and attacker-among-benign mixes. Set SimOptions.Scenario
// to run one. See internal/scenario.
type Scenario = scenario.Scenario

// Scenarios returns the built-in scenario library.
func Scenarios() []Scenario { return scenario.Builtins() }

// ScenarioByName looks up one built-in scenario.
func ScenarioByName(name string) (Scenario, bool) { return scenario.ByName(name) }

// ParseScenarioManifest decodes and validates a JSON scenario manifest
// (the secddr-sweep -scenario-file format; see examples/scenarios/).
func ParseScenarioManifest(data []byte) ([]Scenario, error) {
	return scenario.ParseManifest(data)
}

// --- Experiment harness ---------------------------------------------------

// Campaign is a batch of simulation jobs plus execution policy (worker
// count, result store). See internal/harness.
type Campaign = harness.Campaign

// CampaignJob is one simulation point of a campaign.
type CampaignJob = harness.Job

// CampaignGrid declares a workload x configuration sweep.
type CampaignGrid = harness.Grid

// CampaignConfig pairs a configuration with its display label (the element
// type of CampaignGrid.Configs).
type CampaignConfig = harness.NamedConfig

// CampaignOutcome is one job's result with its cache provenance.
type CampaignOutcome = harness.Outcome

// CampaignStats summarizes how a campaign was satisfied (executed vs
// served from cache).
type CampaignStats = harness.Stats

// CampaignStore is the persistent result cache behind a campaign;
// ResultStore is its on-disk implementation.
type CampaignStore = harness.Store

// RunCampaign executes a campaign on the parallel harness, skipping points
// its store has already computed.
func RunCampaign(c Campaign) ([]CampaignOutcome, CampaignStats, error) { return harness.Run(c) }

// RunCampaignContext is RunCampaign with cancellation: completed points
// still reach the store, so an interrupted campaign resumes cleanly.
func RunCampaignContext(ctx context.Context, c Campaign) ([]CampaignOutcome, CampaignStats, error) {
	return harness.RunContext(ctx, c)
}

// --- Campaign service -----------------------------------------------------

// ResultStore is a concurrent, digest-keyed, on-disk result store: an
// append-only segment log with O(point) appends, crash-safe recovery, and
// background compaction. See internal/resultstore.
type ResultStore = resultstore.Store

// OpenResultStore opens (creating if needed) a result store directory.
func OpenResultStore(dir string) (*ResultStore, error) {
	return resultstore.Open(dir, resultstore.Options{})
}

// SweepSpec is a declarative sweep request for the campaign service
// (modes x workloads x scale overrides; the PUT /v1/sweeps/{key} body).
type SweepSpec = service.Spec

// SweepFidelity is a sweep spec's fidelity block: which execution
// fidelities to sweep and the sampled mode's knobs.
type SweepFidelity = service.FidelitySpec

// SweepClient talks to a secddr-serve daemon.
type SweepClient = service.Client

// SweepServer is the campaign service's HTTP engine: sweep submission,
// singleflight job queue, result streaming, and the worker fleet's
// lease/ack/heartbeat surface. cmd/secddr-serve is a thin wrapper.
type SweepServer = service.Server

// SweepServerOptions sizes the server's local pool (negative Workers =
// fleet-only: execute nothing in-process, serve leases to workers).
type SweepServerOptions = service.ServerOptions

// FleetWorker leases jobs from a sweep server and streams results back;
// it is the engine of cmd/secddr-worker.
type FleetWorker = service.Worker

// NewSweepServer builds a sweep server over a result store (any
// CampaignStore) and starts its local pool and lease reaper.
func NewSweepServer(store CampaignStore, opt SweepServerOptions) *SweepServer {
	return service.NewServer(store, opt)
}

// SweepWAL is the campaign service's write-ahead log: attach one via
// SweepServerOptions.WAL and call SweepServer.Recover on boot, and
// submitted sweeps survive server crashes and restarts — completed
// points replay from the result store, only the remainder re-runs.
type SweepWAL = service.WAL

// OpenSweepWAL creates this process's WAL file inside the store
// directory. epoch is the leader-lease epoch (0 standalone).
func OpenSweepWAL(dir string, epoch uint64) (*SweepWAL, error) {
	return service.OpenWAL(dir, epoch)
}

// SweepReplica is one member of a replica group: several secddr-serve
// processes sharing a store directory, electing a leader through a
// leased file, with followers proxying the API to it and taking over
// (WAL replay included) when it dies.
type SweepReplica = service.Replica

// SweepReplicaOptions configures a SweepReplica.
type SweepReplicaOptions = service.ReplicaOptions

// NewSweepReplica wires a replica over an open store; dir is the store
// directory its lease and WAL files live in.
func NewSweepReplica(store CampaignStore, dir string, opt SweepReplicaOptions) *SweepReplica {
	return service.NewReplica(store, dir, opt)
}

// SweepStreamItem is one line of a sweep's NDJSON result stream: a
// sequenced outcome, or the end sentinel carrying terminal state and
// final stats. SweepClient.StreamResults resumes across connection loss
// by cursor, delivering every item exactly once.
type SweepStreamItem = service.StreamItem

// SweepStatus is a sweep's progress document (GET /v1/sweeps/{id}).
type SweepStatus = service.SweepStatus

// Typed campaign-service failures, usable with errors.Is on both sides
// of the wire (the client rebuilds them from HTTP error codes).
var (
	ErrSweepShuttingDown = service.ErrShuttingDown
	ErrSweepQuota        = service.ErrQuotaExceeded
	ErrUnknownSweep      = service.ErrUnknownSweep
	ErrNotLeader         = service.ErrNotLeader
	// ErrUnsupportedFidelity rejects sweep specs whose fidelity block this
	// server's simulator version cannot honor (unknown mode names or
	// fields from a newer build).
	ErrUnsupportedFidelity = service.ErrUnsupportedFidelity
)

// Scale controls experiment length.
type Scale = experiments.Scale

// FigureResult is a reproduced figure.
type FigureResult = experiments.FigureResult

// DefaultScale returns figure-quality settings; QuickScale smoke settings.
func DefaultScale() Scale { return experiments.DefaultScale() }

// QuickScale returns smoke-test experiment settings.
func QuickScale() Scale { return experiments.QuickScale() }

// Fig6 reproduces the overall performance figure.
func Fig6(s Scale) (FigureResult, error) { return experiments.Fig6(s) }

// Fig7 reproduces the metadata-cache behaviour figure.
func Fig7(s Scale) ([]experiments.Fig7Row, error) { return experiments.Fig7(s) }

// Fig8 reproduces the tree-arity/counter-packing sensitivity figure.
func Fig8(s Scale) ([]experiments.Fig8Bar, error) { return experiments.Fig8(s) }

// Fig10 reproduces the InvisiMem comparison (AES-XTS).
func Fig10(s Scale) (FigureResult, error) { return experiments.Fig10(s) }

// Fig12 reproduces the InvisiMem comparison (counter mode).
func Fig12(s Scale) (FigureResult, error) { return experiments.Fig12(s) }

// Table2 evaluates the AES power model for the paper's DDR4 configurations.
func Table2() []analysis.PowerResult {
	unit := analysis.ReferenceAESUnit()
	var out []analysis.PowerResult
	for _, chip := range analysis.Table2Configs() {
		out = append(out, analysis.AESPower(chip, unit))
	}
	return out
}
