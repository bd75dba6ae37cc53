from sncoint.cli import main

raise SystemExit(main())
