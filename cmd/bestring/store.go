package main

import (
	"context"
	"flag"
	"fmt"

	"bestring"
)

// cmdStore dispatches the durable-store subcommands:
//
//	bestring store init    -data-dir d [-count 50] [-seed 1] [-objects 8]
//	                       [-vocab 24] [-fsync always] [-segment-bytes N]
//	bestring store inspect -data-dir d
//	bestring store compact -data-dir d
func cmdStore(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("store: missing subcommand (init, inspect, compact)")
	}
	switch args[0] {
	case "init":
		return cmdStoreInit(args[1:])
	case "inspect":
		return cmdStoreInspect(args[1:])
	case "compact":
		return cmdStoreCompact(args[1:])
	default:
		return fmt.Errorf("store: unknown subcommand %q (want init, inspect or compact)", args[0])
	}
}

// storeFlags adds the flags shared by the store subcommands.
func storeFlags(fs *flag.FlagSet) (dataDir *string, fsyncS *string, segBytes *int64) {
	dataDir = fs.String("data-dir", "", "store directory (required)")
	fsyncS = fs.String("fsync", "always", "WAL fsync policy: always, interval or never")
	segBytes = fs.Int64("segment-bytes", 0, "WAL segment rotation threshold (0 = 4 MiB)")
	return
}

// openStoreFlags validates the shared flags and opens the store.
func openStoreFlags(dataDir, fsyncS string, segBytes int64) (*bestring.DB, error) {
	if dataDir == "" {
		return nil, fmt.Errorf("store: -data-dir is required")
	}
	policy, err := bestring.ParseFsyncPolicy(fsyncS)
	if err != nil {
		return nil, err
	}
	return bestring.OpenStore(dataDir, bestring.StoreOptions{
		Fsync: policy, SegmentBytes: segBytes,
	})
}

func cmdStoreInit(args []string) error {
	fs := flag.NewFlagSet("store init", flag.ContinueOnError)
	dataDir, fsyncS, segBytes := storeFlags(fs)
	count := fs.Int("count", 50, "number of synthetic scenes to seed (0: create empty)")
	seed := fs.Int64("seed", 1, "generator seed")
	objects := fs.Int("objects", 8, "objects per scene")
	vocab := fs.Int("vocab", 24, "icon vocabulary size")
	if err := fs.Parse(args); err != nil {
		return err
	}
	s, err := openStoreFlags(*dataDir, *fsyncS, *segBytes)
	if err != nil {
		return err
	}
	defer s.Close()
	if *count > 0 {
		if s.Len() > 0 {
			return fmt.Errorf("store init: %s already holds %d images (inspect or serve it instead)",
				*dataDir, s.Len())
		}
		cfg := bestring.SceneConfig{Seed: *seed, Objects: *objects, Vocabulary: *vocab}
		if err := bestring.SeedScenes(context.Background(), s, cfg, *count); err != nil {
			return err
		}
		// Checkpoint so a freshly initialised store opens from a snapshot
		// instead of replaying the seeding batch every time.
		if err := s.Checkpoint(); err != nil {
			return err
		}
	}
	st := s.StoreStats()
	fmt.Printf("initialised %s: %d images, lsn %d, fsync %s\n",
		*dataDir, s.Len(), st.LastLSN, st.WAL.Fsync)
	return nil
}

func cmdStoreInspect(args []string) error {
	fs := flag.NewFlagSet("store inspect", flag.ContinueOnError)
	dataDir := fs.String("data-dir", "", "store directory (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dataDir == "" {
		return fmt.Errorf("store inspect: -data-dir is required")
	}
	ins, err := bestring.InspectStore(*dataDir)
	if err != nil {
		return err
	}
	fmt.Printf("store %s\n", ins.Dir)
	fmt.Printf("  snapshot lsn %d, last lsn %d, %d of %d records awaiting replay\n",
		ins.SnapshotLSN, ins.LastLSN, ins.Replayable, ins.Records)
	fmt.Printf("snapshots (%d):\n", len(ins.Snapshots))
	for _, sn := range ins.Snapshots {
		status := fmt.Sprintf("%d entries", sn.Entries)
		if sn.Err != "" {
			status = "UNREADABLE: " + sn.Err
		}
		fmt.Printf("  %-32s lsn %-8d %8d bytes  %s\n", sn.File, sn.LSN, sn.Bytes, status)
	}
	fmt.Printf("segments (%d):\n", len(ins.Segments))
	for _, sg := range ins.Segments {
		note := ""
		if sg.TornBytes > 0 {
			note = fmt.Sprintf("  torn tail (%d bytes, truncated on next open)", sg.TornBytes)
		}
		if sg.Err != "" {
			note = "  CORRUPT: " + sg.Err
		}
		fmt.Printf("  %-32s first-lsn %-8d %8d bytes  %4d records%s\n",
			sg.File, sg.FirstLSN, sg.Bytes, sg.Records, note)
	}
	if len(ins.RecordOps) > 0 {
		fmt.Printf("record ops:\n")
		for _, op := range []string{"insert", "delete", "insert-object", "delete-object", "bulk", "import", "group"} {
			if n := ins.RecordOps[op]; n > 0 {
				fmt.Printf("  %-14s %d\n", op, n)
			}
		}
	}
	// The audit view of a batched log: group frames expand to their
	// sub-records, and bulk/group records to the individual mutations
	// they acknowledged — so "logical mutations" is the write count
	// clients observed, however aggressively the WAL coalesced.
	if ins.Records > 0 {
		fmt.Printf("  group sub-records %d, logical mutations %d\n",
			ins.GroupSubRecords, ins.LogicalMutations)
	}
	return nil
}

func cmdStoreCompact(args []string) error {
	fs := flag.NewFlagSet("store compact", flag.ContinueOnError)
	dataDir, fsyncS, segBytes := storeFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	s, err := openStoreFlags(*dataDir, *fsyncS, *segBytes)
	if err != nil {
		return err
	}
	defer s.Close()
	before := s.StoreStats()
	if err := s.Checkpoint(); err != nil {
		return err
	}
	after := s.StoreStats()
	fmt.Printf("compacted %s: wal %d -> %d bytes, %d -> %d segments, checkpoint lsn %d\n",
		*dataDir, before.WAL.Bytes, after.WAL.Bytes,
		before.WAL.Segments, after.WAL.Segments, after.CheckpointLSN)
	return nil
}
