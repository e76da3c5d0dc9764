// Package dist is the public surface of SLIDE's data-parallel training
// over sparse gradient exchange (§6 of the paper): replicas train on data
// shards and merge their per-batch SparseDeltas — each element's
// sufficient factors, from which every replica folds the s²-sparse touched
// weights' step itself — instead of synchronizing dense parameters.
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

// TCPServer and TCPClient are the one exchange transport, for ranks in
// separate processes and for TrainSharded's in-process replicas alike:
// rank 0 listens and relays frames between the other ranks, which dial
// in; every rank sends its own records to every peer and concatenates all
// parts itself.
type (
	TCPServer = dist.TCPServer
	TCPClient = dist.TCPClient
)

// ExchangeStats accounts a rank's rounds and the bytes it wrote to and
// read from its sockets.
type ExchangeStats = dist.ExchangeStats

// ShardedResult is TrainSharded's outcome: replica networks (bit-identical
// weights on success), per-replica results, per-rank exchange stats.
type ShardedResult = dist.ShardedResult

// NewCodec builds a codec for the network's layer shapes.
func NewCodec(n *slide.Network) *Codec { return dist.NewCodec(n) }

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

// TrainSharded trains N >= 2 in-process data-parallel replicas that
// exchange sparse deltas every batch over loopback TCP, exactly as N
// -dist processes would; see internal/dist.TrainSharded.
func TrainSharded(ctx context.Context, cfg slide.Config, train, test []dataset.Example, tc slide.TrainConfig, shards int) (*ShardedResult, error) {
	return dist.TrainSharded(ctx, cfg, train, test, tc, shards)
}
