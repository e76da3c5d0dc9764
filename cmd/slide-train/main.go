// Command slide-train trains a SLIDE network (or a baseline) on a
// synthetic profile or an Extreme Classification Repository file.
//
// Usage:
//
//	slide-train -profile delicious -scale 0.01 -epochs 4
//	slide-train -train Train.txt -test Test.txt -hash dwta -k 8 -l 50 -beta 3000
//	slide-train -profile amazon -scale 0.01 -system dense
//	slide-train -profile delicious -epochs 4 -save model.slide   # then: slide-serve -model model.slide
//
// The output layer retrieves its active neurons by vanilla sampling over
// reservoir-sampled buckets, the strategy and policy that won README's
// App. C.1 sweep; -hash, -k, -l, -rangepow and -beta shape the tables.
//
// Data-parallel training (§6: sparse-gradient exchange between replicas):
//
//	slide-train -profile delicious -shards 4                     # 4 in-process replicas on loopback TCP
//	slide-train -profile delicious -shards 2 -overlap            # exchange hidden behind the next forward
//	slide-train -shards 2 -dist :7070 -rank 0 &                  # process 0 hosts the exchange
//	slide-train -shards 2 -dist localhost:7070 -rank 1           # process 1 dials in
//
// Each shard trains on a round-robin slice of the data. At every batch
// boundary each replica sends its sparse gradient delta to every other
// and merges all shards' deltas itself, in rank order, so all replicas
// hold identical weights; rank 0 hosts the connections, relays frames
// between the other ranks, and reports and saves the model. In-process
// replicas run the same exchange over loopback TCP, so -shards N and N
// -dist processes with the same flags save the same model.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"

	"repro"
	"repro/baselines"
	"repro/dataset"
	"repro/dist"
	"repro/metrics"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("slide-train: ")
	var (
		profile   = flag.String("profile", "delicious", "synthetic profile: delicious|amazon (ignored when -train is set)")
		scale     = flag.Float64("scale", 0.01, "synthetic profile scale in (0,1]")
		trainPath = flag.String("train", "", "XC-format training file (optional)")
		testPath  = flag.String("test", "", "XC-format test file (optional)")
		system    = flag.String("system", "slide", "system to train: slide|dense")
		hidden    = flag.Int("hidden", 128, "hidden layer width")
		hash      = flag.String("hash", "simhash", "LSH family: simhash|dwta")
		k         = flag.Int("k", 6, "hash codes per table (K)")
		l         = flag.Int("l", 20, "hash tables (L)")
		rangePow  = flag.Int("rangepow", 0, "log2 buckets per table (0 = auto: min(K × code bits, 18); a table costs 4 B per bucket plus 4 B per class)")
		beta      = flag.Int("beta", 0, "target active neurons (0 = classes/20)")
		lr        = flag.Float64("lr", 0.001, "Adam learning rate")
		batch     = flag.Int("batch", 128, "batch size (per shard)")
		epochs    = flag.Int("epochs", 3, "training epochs")
		threads   = flag.Int("threads", 0, "worker threads (0 = GOMAXPROCS, split across in-process shards)")
		evalEvery = flag.Int64("eval-every", 50, "evaluate every N iterations")
		seed      = flag.Uint64("seed", 42, "random seed")
		savePath  = flag.String("save", "", "write the trained model (self-describing v2 format) to this path")
		shards    = flag.Int("shards", 1, "data-parallel replicas exchanging sparse gradient deltas (exact fp32) per batch")
		distAddr  = flag.String("dist", "", "TCP exchange address for multi-process sharding (rank 0 listens, others dial)")
		rank      = flag.Int("rank", 0, "this process's replica rank when -dist is set")
		overlap   = flag.Bool("overlap", false, "hide the delta exchange behind the next batch's forward pass (one-step-stale forwards)")
	)
	flag.Parse()

	ds := loadData(*profile, *scale, *trainPath, *testPath, *seed)
	st := ds.Stats()
	fmt.Printf("dataset %s: %d features, %d classes, %d train / %d test (%.1f nnz, %.1f labels per example)\n",
		st.Name, st.FeatureDim, st.LabelDim, st.TrainSize, st.TestSize, st.AvgFeatures, st.AvgLabels)

	onEval := func(p metrics.Point) {
		fmt.Printf("iter %6d  t=%8.2fs  loss=%.4f  P@1=%.4f\n", p.Iter, p.Seconds, p.Loss, p.Value)
	}

	switch *system {
	case "dense":
		if *savePath != "" {
			log.Fatal("-save only supports -system slide")
		}
		if *shards > 1 || *distAddr != "" {
			log.Fatal("-shards/-dist only support -system slide")
		}
		net, err := baselines.NewDense(baselines.DenseConfig{
			InputDim: ds.InputDim, Hidden: []int{*hidden}, Classes: ds.NumClasses,
			Seed: *seed, Adam: slide.NewAdam(float32(*lr)),
		})
		if err != nil {
			log.Fatal(err)
		}
		res, err := net.Train(ds.Train, ds.Test, baselines.DenseTrainConfig{
			BatchSize: *batch, Epochs: *epochs, Threads: *threads,
			EvalEvery: *evalEvery, Seed: *seed, OnEval: onEval,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("done: P@1=%.4f in %.1fs (%d iterations, utilization %.0f%%)\n",
			res.FinalAcc, res.Seconds, res.Iterations, res.Utilization*100)
	case "slide":
		hk, err := slide.ParseHash(*hash)
		if err != nil {
			log.Fatal(err)
		}
		b := *beta
		if b == 0 {
			b = ds.NumClasses / 20
		}
		cfg := slide.Config{
			InputDim: ds.InputDim,
			Seed:     *seed,
			Adam:     slide.NewAdam(float32(*lr)),
			Layers: []slide.LayerConfig{
				{Size: *hidden, Activation: slide.ActReLU},
				{
					Size: ds.NumClasses, Activation: slide.ActSoftmax,
					Sampled: true, Hash: hk, K: *k, L: *l, RangePow: *rangePow,
					Strategy: slide.StrategyVanilla, Beta: b,
				},
			},
		}
		if *overlap && *shards <= 1 && *distAddr == "" {
			log.Fatal("-overlap needs sharded training (-shards > 1 or -dist)")
		}
		tc := slide.TrainConfig{
			BatchSize: *batch, Epochs: *epochs, Threads: *threads,
			EvalEvery: *evalEvery, Seed: *seed, OnEval: onEval,
			OverlapExchange: *overlap,
		}

		var net *slide.Network
		switch {
		case *distAddr != "":
			if *savePath != "" && *rank != 0 {
				log.Printf("warning: -save is ignored on rank %d — rank 0 saves the model", *rank)
			}
			net = trainTCPShard(ds, cfg, tc, *distAddr, *rank, *shards)
		case *shards > 1:
			net = trainInProcessShards(ds, cfg, tc, *shards)
		default:
			if net, err = slide.New(cfg); err != nil {
				log.Fatal(err)
			}
			res, err := net.Train(ds.Train, ds.Test, tc)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("done: P@1=%.4f in %.1fs (%d iterations, %d rebuilds, %.0f mean active of %d, utilization %.0f%%)\n",
				res.FinalAcc, res.Seconds, res.Iterations, res.Rebuilds,
				res.MeanActive[1], ds.NumClasses, res.Utilization*100)
		}
		if *savePath != "" && net != nil {
			saveModel(net, *savePath)
		}
	default:
		log.Fatalf("unknown -system %q (want slide|dense)", *system)
	}
}

// trainInProcessShards runs N replicas in this process, connected over
// loopback TCP as N -dist processes would be, and returns the trained
// model (all replicas are identical).
func trainInProcessShards(ds *dataset.Dataset, cfg slide.Config, tc slide.TrainConfig, shards int) *slide.Network {
	fmt.Printf("sharded training: %d in-process replicas exchanging sparse deltas over loopback TCP\n", shards)
	res, err := dist.TrainSharded(context.Background(), cfg, ds.Train, ds.Test, tc, shards)
	if err != nil {
		log.Fatal(err)
	}
	r0 := res.Results[0]
	fmt.Printf("done: P@1=%.4f in %.1fs (%d iterations, %d rebuilds, %.0f mean active of %d)\n",
		r0.FinalAcc, r0.Seconds, r0.Iterations, r0.Rebuilds, r0.MeanActive[1], ds.NumClasses)
	reportExchange(res.Nets[0], r0, res.Stats[0], 0, shards)
	return res.Nets[0]
}

// trainTCPShard runs this process as one rank of a TCP-sharded group.
// Rank 0 hosts the exchange; every rank trains its round-robin shard on
// the same schedule (derived from the smallest shard, as TrainSharded
// does in process).
func trainTCPShard(ds *dataset.Dataset, cfg slide.Config, tc slide.TrainConfig, addr string, rank, shards int) *slide.Network {
	if shards < 2 {
		log.Fatalf("-dist needs -shards >= 2, got %d", shards)
	}
	if rank < 0 || rank >= shards {
		log.Fatalf("-rank %d out of range [0,%d)", rank, shards)
	}
	if len(ds.Train) < shards {
		log.Fatalf("%d training examples cannot feed %d shards", len(ds.Train), shards)
	}
	net, err := slide.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	codec := dist.NewCodec(net)

	// The shared schedule derivation keeps every process on the same
	// batch size and iteration count — ranks on different schedules
	// would desync the exchange barrier — and the digest lets the
	// handshake refuse a rank launched with different flags outright.
	shard := dist.ShardExamples(ds.Train, rank, shards)
	baseSeed := tc.Seed
	tc = dist.ShardTrainConfig(tc, len(ds.Train), rank, shards)
	digest := dist.ScheduleDigest(cfg, tc, baseSeed)

	type statser interface {
		Stats() dist.ExchangeStats
	}
	var ex interface {
		slide.DeltaExchanger
		statser
	}
	if rank == 0 {
		srv, err := dist.ListenExchanger(addr, shards, codec, digest)
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		fmt.Printf("sharded training: rank 0/%d hosting exchange on %s, waiting for %d peers\n",
			shards, srv.Addr(), shards-1)
		ex = srv
	} else {
		cli, err := dist.DialExchanger(addr, rank, shards, codec, digest)
		if err != nil {
			log.Fatal(err)
		}
		defer cli.Close()
		fmt.Printf("sharded training: rank %d/%d joined exchange at %s\n", rank, shards, addr)
		ex = cli
	}
	tc.Exchanger = ex

	res, err := net.Train(shard, ds.Test, tc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("done (rank %d): P@1=%.4f in %.1fs (%d iterations, %d rebuilds)\n",
		rank, res.FinalAcc, res.Seconds, res.Iterations, res.Rebuilds)
	reportExchange(net, res, ex.Stats(), rank, shards)
	if rank != 0 {
		return nil // rank 0 owns reporting artifacts like -save
	}
	return net
}

// reportExchange prints rank's measured sparse-exchange payload against
// the dense parameter synchronization it replaces (§6). Rank 0's counters
// sum its shards-1 client links, so it prints the per-link mean: at 2
// shards that is exactly one replica's view; beyond, each link also
// carries the frames rank 0 relays.
func reportExchange(net *slide.Network, res *slide.TrainResult, st dist.ExchangeStats, rank, shards int) {
	if st.Rounds == 0 {
		return
	}
	if rank == 0 {
		st.BytesOut, st.BytesIn = st.BytesOut/int64(shards-1), st.BytesIn/int64(shards-1)
	}
	sent, recv := st.BytesOutPerRound(), st.BytesInPerRound()
	dense := float64(net.NumParams()) * 4
	fmt.Printf("exchange: %.1f KiB/iter sent, %.1f KiB/iter received (dense sync %.1f MiB/iter, %.0fx reduction; %.0f%% of train time blocked)\n",
		sent/1024, recv/1024, dense/(1<<20), dense/max(min(sent, recv), 1),
		100*float64(res.ExchangeNS)/1e9/max(res.Seconds, 1e-9))
	if res.ExchangeHiddenNS > 0 {
		fmt.Printf("overlap: %.2fs of exchange hidden behind forward passes (%.2fs still blocking)\n",
			float64(res.ExchangeHiddenNS)/1e9, float64(res.ExchangeNS)/1e9)
	}
}

func saveModel(net *slide.Network, path string) {
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := net.SaveModel(f); err != nil {
		f.Close()
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("saved model to %s (serve it with: slide-serve -model %s)\n", path, path)
}

func loadData(profile string, scale float64, trainPath, testPath string, seed uint64) *dataset.Dataset {
	if trainPath != "" {
		ds, err := dataset.LoadXCFile("xc-data", trainPath)
		if err != nil {
			log.Fatal(err)
		}
		if testPath != "" {
			tds, err := dataset.LoadXCFile("xc-test", testPath)
			if err != nil {
				log.Fatal(err)
			}
			ds.Test = tds.Train
		}
		if err := ds.Validate(); err != nil {
			log.Fatal(err)
		}
		return ds
	}
	var p dataset.Profile
	switch profile {
	case "delicious":
		p = dataset.Delicious200K(scale, seed)
	case "amazon":
		p = dataset.Amazon670K(scale, seed)
	default:
		fmt.Fprintf(os.Stderr, "unknown -profile %q (want delicious|amazon)\n", profile)
		os.Exit(1)
	}
	ds, err := dataset.Generate(p)
	if err != nil {
		log.Fatal(err)
	}
	return ds
}
