package place

// PartitionsOf exposes partitionsOf to the external tests.
var PartitionsOf = partitionsOf
