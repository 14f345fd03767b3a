"""flowbench: benchmark a from-scratch classifier portfolio on flow-record CSVs."""
