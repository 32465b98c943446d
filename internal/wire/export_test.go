package wire

// OpTable is the binary op-code table (code 0, the string escape,
// included), exported to the package's external tests.
var OpTable = opNames
