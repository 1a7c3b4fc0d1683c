from roofext.cli import main

raise SystemExit(main())
