package other_test

func ExampleOrphan() {}
