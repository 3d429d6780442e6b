package machine

// ReferenceTime exports the map-based reference packer to the
// external machine_test package.
var ReferenceTime = referenceTime
