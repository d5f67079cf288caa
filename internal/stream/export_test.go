package stream

// Processes lists the supported arrival processes.
func Processes() []string {
	return []string{ProcessPoisson, ProcessDiurnal, ProcessBursty}
}
