package imagedb

import (
	"bestring/internal/core"
)

// This file implements the columnar arena layout for bulk-loaded
// segments (DESIGN.md section 12). The boxed layout allocates every
// stored entry — and its BE-string axes, object list and signature label
// slice — individually, so a million-scene corpus costs several million
// scattered heap objects that the scan-heavy stages (filter, bound,
// refine) then chase in random order. An entryArena instead packs one
// chunk's entries into a handful of contiguous backing slabs:
//
//	entries []stored       one slab, *stored pointers index into it
//	tokens  []core.Token   every entry's BE X and Y axes, back to back
//	objects []core.Object  every entry's object list
//	labels  []string       every signature's label slice
//	sigs    []core.Signature
//	codes   []uint32       every entry's coded X and Y axes
//
// Each entry's slices are three-index subslices of the slabs (capacity
// pinned to length), so an append by any holder reallocates instead of
// bleeding into its neighbour. A sealed arena is immutable — exactly the
// contract the MVCC snapshots already demand of *stored — so arena
// entries slot into the COW shardView machinery unchanged: the maps and
// the scan column hold ordinary *stored pointers that happen to point
// into a slab, updates copy the touched entry out of the arena onto the
// heap (the existing replace-not-mutate rule), and deletes just drop the
// pointer. The slab stays reachable while any snapshot references any of
// its entries; for bulk-loaded segments that is the working set anyway.
//
// Pointer identity is preserved: &arena.entries[i] is as stable as a
// boxed allocation, so the scorer cache's (query, entry-pointer) version
// key works identically arena on or off.

// entryArena is one sealed columnar chunk of stored entries.
type entryArena struct {
	entries []stored
	tokens  []core.Token
	objects []core.Object
	labels  []string
	sigs    []core.Signature
	codes   []uint32
}

// arenaItem is one entry to be packed: the identity, the source image
// and its converted BE-string. The image's objects are copied into the
// arena's slab, so the caller's image need not be pre-cloned.
type arenaItem struct {
	id, name string
	img      core.Image
	be       core.BEString
}

// buildArena packs the items into one sealed arena, deriving each
// entry's signature and codes against dict on the way (the arena twin of
// stored.index). Two passes: size every slab exactly, then fill — the
// slabs never grow after a subslice is taken, which is what keeps all
// subslices aliased to one backing array each.
func buildArena(items []arenaItem, dict *core.LabelDict) *entryArena {
	sigs := make([]core.Signature, len(items))
	var nTok, nObj, nLab int
	for i := range items {
		sigs[i] = core.SignatureOf(items[i].be)
		nTok += len(items[i].be.X) + len(items[i].be.Y)
		nObj += len(items[i].img.Objects)
		nLab += len(sigs[i].Labels)
	}
	a := &entryArena{
		entries: make([]stored, len(items)),
		tokens:  make([]core.Token, 0, nTok),
		objects: make([]core.Object, 0, nObj),
		labels:  make([]string, 0, nLab),
		sigs:    sigs,
		codes:   make([]uint32, nTok),
	}
	codesAt := 0
	for i := range items {
		it := &items[i]
		x := a.claimTokens(it.be.X)
		y := a.claimTokens(it.be.Y)

		start := len(a.objects)
		a.objects = append(a.objects, it.img.Objects...)
		objs := a.objects[start:len(a.objects):len(a.objects)]

		sig, ids := sigs[i].Intern(dict)
		start = len(a.labels)
		a.labels = append(a.labels, sig.Labels...)
		sig.Labels = a.labels[start:len(a.labels):len(a.labels)]
		a.sigs[i] = sig
		nCodes := len(x) + len(y)
		codes := core.EncodeBE(a.codes[codesAt:codesAt+nCodes], it.be, sig.Labels, ids)
		codesAt += nCodes

		a.entries[i] = stored{
			Entry: Entry{
				ID:    it.id,
				Name:  it.name,
				Image: core.Image{XMax: it.img.XMax, YMax: it.img.YMax, Objects: objs},
				BE:    core.BEString{X: x, Y: y},
			},
			sig:   &a.sigs[i],
			codes: codes,
		}
	}
	return a
}

// claimTokens copies one axis into the token slab and returns its
// capacity-pinned subslice.
func (a *entryArena) claimTokens(axis core.Axis) core.Axis {
	start := len(a.tokens)
	a.tokens = append(a.tokens, axis...)
	return core.Axis(a.tokens[start:len(a.tokens):len(a.tokens)])
}

// pointers returns install-ready *stored pointers into the slab —
// sequence numbers unassigned, exactly like prepareBulk's boxed output.
func (a *entryArena) pointers() []*stored {
	sts := make([]*stored, len(a.entries))
	for i := range a.entries {
		sts[i] = &a.entries[i]
	}
	return sts
}

// SetArenaLayout switches the columnar arena layout for bulk-loaded
// segments on or off (on by default). Off means every bulk/import/load
// entry is boxed individually, as before the arena existed. Rankings are
// byte-identical either way (pinned by TestArenaRankingByteIdentical);
// the switch exists for benchmarking and for falling back should a
// workload prefer per-entry reclamation over slab locality. Takes effect
// for subsequent bulk operations; already-installed segments keep their
// layout.
func (db *DB) SetArenaLayout(on bool) { db.arenaOff.Store(!on) }

// ArenaLayout reports whether bulk-loaded segments use the columnar
// arena layout.
func (db *DB) ArenaLayout() bool { return !db.arenaOff.Load() }

// SetArenaLayout forwards DB.SetArenaLayout to the store's database:
// it governs how the store's bulk inserts, imports and snapshot loads
// lay entries out.
func (s *Store) SetArenaLayout(on bool) { s.db.SetArenaLayout(on) }

// ArenaLayout reports whether the store's bulk loads use the columnar
// arena layout.
func (s *Store) ArenaLayout() bool { return s.db.ArenaLayout() }
