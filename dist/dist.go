// Package dist is the public surface of SLIDE's data-parallel training
// over sparse gradient exchange (§6 of the paper): replicas train on data
// shards and merge their per-batch SparseDeltas — the s²-sparse touched
// weights — instead of synchronizing dense parameters.
//
// It re-exports repro/internal/dist so binaries and external consumers
// never import internal packages directly.
package dist

import (
	"context"

	slide "repro"
	"repro/dataset"
	"repro/internal/dist"
)

// Codec encodes SparseDeltas into the compact validated wire format:
// exact float32 values, non-finite ones rejected on decode.
type Codec = dist.Codec

// Mesh is the in-process all-reduce exchanger for N replicas in one
// process; rank exchangers come from Mesh.Rank.
type Mesh = dist.Mesh

// TCPServer and TCPClient are the multi-process hub transport: rank 0
// listens and merges, other ranks dial in.
type (
	TCPServer = dist.TCPServer
	TCPClient = dist.TCPClient
)

// ExchangeStats accounts an exchanger's measured bytes per round.
type ExchangeStats = dist.ExchangeStats

// ShardedResult is TrainSharded's outcome: replica networks (bit-identical
// weights on success), per-replica results, per-rank exchange stats.
type ShardedResult = dist.ShardedResult

// NewCodec builds a codec for the network's layer shapes.
func NewCodec(n *slide.Network) *Codec { return dist.NewCodec(n) }

// NewMesh builds an in-process all-reduce for the given shard count;
// codec (may be nil) prices exchanged deltas for byte accounting.
func NewMesh(shards int, codec *Codec) *Mesh { return dist.NewMesh(shards, codec) }

// ListenExchanger binds addr as rank 0 of a TCP-sharded group; joining
// ranks must present the same schedule digest.
func ListenExchanger(addr string, shards int, codec *Codec, digest uint64) (*TCPServer, error) {
	return dist.ListenExchanger(addr, shards, codec, digest)
}

// DialExchanger connects rank (1..shards-1) to the rank-0 server.
func DialExchanger(addr string, rank, shards int, codec *Codec, digest uint64) (*TCPClient, error) {
	return dist.DialExchanger(addr, rank, shards, codec, digest)
}

// ScheduleDigest fingerprints the settings every replica of a group must
// share (network config, per-shard batch and iterations, base seed); pass
// it to ListenExchanger/DialExchanger so mismatched launches are refused
// at join time instead of silently diverging. Derive tc through
// ShardTrainConfig first so the digested batch/iteration schedule is the
// group-wide one.
func ScheduleDigest(cfg slide.Config, tc slide.TrainConfig, baseSeed uint64) uint64 {
	return dist.ScheduleDigest(cfg, tc, baseSeed)
}

// ShardExamples returns rank's round-robin shard of xs.
func ShardExamples(xs []dataset.Example, rank, shards int) []dataset.Example {
	return dist.ShardExamples(xs, rank, shards)
}

// ShardTrainConfig derives rank's per-replica TrainConfig (identical
// schedule on every rank, rank-striped seeds); see
// internal/dist.ShardTrainConfig.
func ShardTrainConfig(tc slide.TrainConfig, trainLen, rank, shards int) slide.TrainConfig {
	return dist.ShardTrainConfig(tc, trainLen, rank, shards)
}

// TrainSharded trains N in-process data-parallel replicas with per-batch
// sparse-delta all-reduce; see internal/dist.TrainSharded.
func TrainSharded(ctx context.Context, cfg slide.Config, train, test []dataset.Example, tc slide.TrainConfig, shards int) (*ShardedResult, error) {
	return dist.TrainSharded(ctx, cfg, train, test, tc, shards)
}
