package imagedb

import "bestring/internal/core"

// regionIDSet probes a version's R-tree for icons intersecting the
// region, optionally restricted to one label, and reduces them to the
// set of image ids with at least one matching icon — the candidate
// filter of the pipeline's region stage. Lock-free: the version's tree
// is frozen.
func (s *snapshot) regionIDSet(region core.Rect, label string) map[string]bool {
	items := s.spatial.SearchIntersect(region)
	ids := make(map[string]bool, len(items))
	for _, it := range items {
		imageID, l := splitSpatialID(it.ID)
		if label == "" || l == label {
			ids[imageID] = true
		}
	}
	return ids
}

// ImagesWithLabel returns the ids of images containing the icon label,
// in insertion order (the inverted-index lookup, gathered across shards).
func (db *DB) ImagesWithLabel(label string) []string {
	return db.current.Load().orderedIDsMatching(func(sv *shardView, id string) bool {
		return sv.labels[label][id]
	})
}
