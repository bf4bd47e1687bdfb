package bestring

import (
	"bestring/internal/imagedb"
	"bestring/internal/query"
)

// Spatial-predicate query types, re-exported.
type (
	// SpatialQuery is a parsed conjunction of spatial predicates
	// ("A left-of B; B above C") evaluated against symbolic images.
	SpatialQuery = query.Query
	// SpatialConstraint is one clause of a SpatialQuery.
	SpatialConstraint = query.Constraint
	// BulkItem is one image in DB.BulkInsert.
	BulkItem = imagedb.BulkItem
)

// ParseQuery parses the spatial-predicate surface syntax: clauses
// separated by ';' or newlines, each "label op label" with op one of
// left-of, right-of, above, below, overlaps, inside, contains, disjoint.
func ParseQuery(s string) (SpatialQuery, error) { return query.Parse(s) }
